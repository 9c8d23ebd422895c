#!/bin/sh
# lynxd end-to-end smoke: start the daemon on an ephemeral port, submit
# a seeded one-cell load job through lynxctl, and assert the streamed
# result table is byte-identical to the same sweep run via the CLI
# (`lynxload -json`) — the daemon's determinism contract — and that the
# job's metrics rollup is keyed by its cell, then check the daemon
# shuts down cleanly on SIGTERM.
#
# Usage: scripts/lynxd_smoke.sh [BIN_DIR]   (default ./bin)
set -eu

BIN=${1:-./bin}
OUT=$(mktemp -d)
DPID=
cleanup() {
	[ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
	rm -rf "$OUT"
}
trap cleanup EXIT

# Create the log before the daemon starts: the background redirection
# may not have opened it yet when the first poll below reads it.
: >"$OUT/lynxd.log"
"$BIN/lynxd" -addr 127.0.0.1:0 >"$OUT/lynxd.log" 2>&1 &
DPID=$!

# The daemon's first stdout line announces the actual address.
ADDR=
i=0
while [ $i -lt 100 ]; do
	ADDR=$(sed -n 's/^lynxd: listening on //p' "$OUT/lynxd.log")
	[ -n "$ADDR" ] && break
	kill -0 "$DPID" 2>/dev/null || { echo "lynxd-smoke: daemon died at startup"; cat "$OUT/lynxd.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "lynxd-smoke: daemon never announced its address"; cat "$OUT/lynxd.log"; exit 1; }
export LYNXD_ADDR="$ADDR"

# One seeded single-cell sweep: charlotte at 40/s over a 200ms window
# (the same cell CI's seeded lynxload run exercises).
"$BIN/lynxctl" submit '{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[40],"window":"200ms","seed":1}}' >"$OUT/submit.json"
ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/submit.json")
[ -n "$ID" ] || { echo "lynxd-smoke: submit returned no job id"; cat "$OUT/submit.json"; exit 1; }

# `result` blocks on the stream until the job completes, emitting only
# the verbatim table lines.
"$BIN/lynxctl" result "$ID" >"$OUT/daemon.jsonl"
"$BIN/lynxload" -substrates charlotte -rates 40 -window 200ms -seed 1 -json >"$OUT/cli.jsonl"
if ! cmp -s "$OUT/daemon.jsonl" "$OUT/cli.jsonl"; then
	echo "lynxd-smoke: daemon result differs from lynxload -json (determinism contract broken)"
	diff "$OUT/daemon.jsonl" "$OUT/cli.jsonl" | head -10 || true
	exit 1
fi

# The finished job's metrics rollup: one non-empty JSON object whose
# every key is a counter name filed under the job's one cell key.
"$BIN/lynxctl" metrics "$ID" >"$OUT/metrics.json"
CELL='substrate=charlotte/rate=40/'
if ! grep -q "^{\"$CELL.*}\$" "$OUT/metrics.json" ||
	tr ',' '\n' <"$OUT/metrics.json" | sed 's/^{//' | grep -v "^\"$CELL" | grep -q .; then
	echo "lynxd-smoke: job metrics is not a non-empty object keyed by cell $CELL"
	head -c 300 "$OUT/metrics.json"
	echo
	exit 1
fi

# Second leg: a faulted load job. The scenario name rides through the
# job spec, becomes a grid axis value on the daemon side, and the
# streamed table must still match the CLI byte for byte.
"$BIN/lynxctl" submit '{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[40],"window":"200ms","seed":1,"faults":["drop10"]}}' >"$OUT/submit2.json"
FID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/submit2.json")
[ -n "$FID" ] || { echo "lynxd-smoke: faults submit returned no job id"; cat "$OUT/submit2.json"; exit 1; }
"$BIN/lynxctl" result "$FID" >"$OUT/daemon_faults.jsonl"
"$BIN/lynxload" -substrates charlotte -rates 40 -window 200ms -seed 1 -faults drop10 -json >"$OUT/cli_faults.jsonl"
if ! cmp -s "$OUT/daemon_faults.jsonl" "$OUT/cli_faults.jsonl"; then
	echo "lynxd-smoke: daemon faults result differs from lynxload -faults -json"
	diff "$OUT/daemon_faults.jsonl" "$OUT/cli_faults.jsonl" | head -10 || true
	exit 1
fi

# Third leg: the flight recorder. Submit a sampled-mode job at a rate
# no earlier leg used (25/s — a cached cell would run nothing and emit
# no events), follow its live trace with `lynxtrace -follow` (which,
# like lynxctl, finds the daemon through LYNXD_ADDR), and assert the
# stream is well-formed JSONL carrying both sampled events and a
# non-empty end-of-run ring dump.
"$BIN/lynxctl" submit '{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[25],"window":"200ms","seed":1,"trace":"sampled"}}' >"$OUT/submit3.json"
TID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/submit3.json")
[ -n "$TID" ] || { echo "lynxd-smoke: traced submit returned no job id"; cat "$OUT/submit3.json"; exit 1; }
"$BIN/lynxtrace" -follow "$TID" -format jsonl >"$OUT/trace.jsonl"
[ -s "$OUT/trace.jsonl" ] || { echo "lynxd-smoke: traced job streamed no trace lines"; exit 1; }
# Every line must be a JSON object (JSONL), and the stream must carry a
# dump header whose ring is non-empty.
if grep -qv '^{.*}$' "$OUT/trace.jsonl"; then
	echo "lynxd-smoke: trace stream is not well-formed JSONL:"
	grep -v '^{.*}$' "$OUT/trace.jsonl" | head -3
	exit 1
fi
grep -q '"type":"dump"' "$OUT/trace.jsonl" || { echo "lynxd-smoke: trace stream carried no ring dump"; exit 1; }
if grep '"type":"dump"' "$OUT/trace.jsonl" | grep -q '"ring":0'; then
	echo "lynxd-smoke: ring dump is empty"
	grep '"type":"dump"' "$OUT/trace.jsonl"
	exit 1
fi
grep -qv '"type":"dump"' "$OUT/trace.jsonl" || { echo "lynxd-smoke: trace stream carried no sampled events"; exit 1; }

# Clean shutdown: SIGTERM must end the process with exit 0.
kill "$DPID"
st=0
wait "$DPID" || st=$?
DPID=
if [ "$st" -ne 0 ]; then
	echo "lynxd-smoke: daemon exited $st on SIGTERM, want 0"
	cat "$OUT/lynxd.log"
	exit 1
fi
grep -q "shutting down" "$OUT/lynxd.log" || { echo "lynxd-smoke: no shutdown line"; cat "$OUT/lynxd.log"; exit 1; }

echo "lynxd-smoke: ok (daemon table byte-identical to CLI, metrics keyed by cell, clean shutdown)"
