GO ?= go

.PHONY: check fmt vet build test race bench bench-all lynxd-smoke

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

# bench runs the repository benchmark (bench/): end-to-end host
# throughput and virtual latency on four workloads, plus per-layer cost.
bench:
	bash bench/run.sh

# bench-all runs the full experiment + RPC benchmark suite once.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# lynxd-smoke boots the daemon on an ephemeral port, runs a seeded
# one-cell job through lynxctl, and asserts the streamed table is
# byte-identical to the CLI's `lynxload -json` bytes (plus a clean
# SIGTERM shutdown). It also runs a traced job and follows its live
# event stream with `lynxtrace -follow`, asserting well-formed JSONL
# and a non-empty end-of-run ring dump.
lynxd-smoke:
	$(GO) build -o bin/ ./cmd/lynxd ./cmd/lynxctl ./cmd/lynxload ./cmd/lynxtrace
	sh scripts/lynxd_smoke.sh bin
