GO ?= go

.PHONY: check fmt vet build test race golden bench bench-all loc

# check is the local gate: formatting, vet, build, and the full test
# suite under the race detector. The behaviour goldens and the
# allocation gate run in every test run; the wall-clock gates (recorder
# overhead, 4-worker scaling) are plain tests left out of race builds,
# so `make test` runs them.
check: fmt vet build race

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# golden regenerates every golden file from the current code: the
# lynxbench JSON, the lynxload tables, the lynxtrace figures, the lynx
# scheduler traces and the grid matrix. Run it after a deliberate
# change to the behaviour contract, then read `git diff` to check that
# only the rows the change explains moved.
golden:
	$(GO) test ./cmd/lynxbench ./cmd/lynxload ./cmd/lynxtrace ./lynx ./lynx/grid -run Golden -update-golden

# bench runs the repository benchmark (bench/): end-to-end host
# throughput and virtual latency on four workloads, plus per-layer cost.
bench:
	bash bench/run.sh

# bench-all runs the full experiment + RPC benchmark suite once.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# loc prints the Go line counts ROADMAP tracks, outside bench/:
# non-test lines, then test lines.
loc:
	@echo "non-test $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "test     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
