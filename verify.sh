#!/usr/bin/env bash
# verify.sh — the repo's one-shot correctness + performance gate.
#
#   ./verify.sh          build, vet, race-test everything, then run the
#                        simnet and repstore benchmarks and append the
#                        numbers to BENCH_simnet.json / BENCH_repstore.json
#                        (runs[] history).
#   ./verify.sh -fast    skip the benchmark pass.
#
# The benchmark history lets a reviewer see whether a change moved a hot
# path without digging through CI logs.
set -euo pipefail
cd "$(dirname "$0")"

# record_bench <bench output> <json path> — append one run to a history file.
# Repeated samples of the same benchmark (go test -count=N) are collapsed to
# their median ns/op, so a noisy-neighbor spike on the shared reference
# container doesn't land in the history as a phantom regression.
record_bench() {
    BENCH_OUT="$1" BENCH_PATH="$2" python3 - <<'EOF'
import json, os, re, statistics, subprocess

out = os.environ["BENCH_OUT"]
path = os.environ["BENCH_PATH"]
def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

# HEAD is the parent of whatever is being measured until it is committed:
# say so (the histories this script appends to do not count), and record the
# host shape the numbers depend on.
commit = sh("git", "rev-parse", "--short", "HEAD") or "worktree"
if sh("git", "status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json"):
    commit += "+dirty"
run = {"date": sh("date", "-u", "+%Y-%m-%dT%H:%M:%SZ"),
       "commit": commit,
       "host": {"cores": os.cpu_count(),
                "gomaxprocs": int(os.environ.get("GOMAXPROCS") or os.cpu_count() or 0),
                "go": sh("go", "env", "GOVERSION")},
       "results": {}}
samples: dict[str, dict] = {}
for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$", out, re.M):
    name, ns, rest = m.group(1), float(m.group(2)), m.group(3)
    s = samples.setdefault(name, {"ns": []})
    s["ns"].append(ns)
    if a := re.search(r"(\d+) allocs/op", rest):
        s["allocs_op"] = int(a.group(1))
    if b := re.search(r"(\d+) B/op", rest):
        s["bytes_op"] = int(b.group(1))
for name, s in samples.items():
    r = {"ns_op": statistics.median(s["ns"])}
    for k in ("allocs_op", "bytes_op"):
        if k in s:
            r[k] = s[k]
    if len(s["ns"]) > 1:
        r["samples"] = len(s["ns"])
    run["results"][name] = r

doc = json.load(open(path))
doc.setdefault("runs", []).append(run)
json.dump(doc, open(path, "w"), indent=2)
print(f"recorded {len(run['results'])} benchmarks at {run['date']}")
EOF
}

# goloc <path>... — non-test Go lines under the paths (bench/ excluded: it is
# its own module), counted in full and without blank and //-only lines.
goloc() {
    find "$@" -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + |
        awk '{ all++ } !/^[[:space:]]*(\/\/|$)/ { code++ } END { printf "%d lines, %d without blank/comment-only lines\n", all, code }'
}

fast=0
[[ "${1:-}" == "-fast" ]] && fast=1

echo "== go build ./..."
go build ./...

# Informational, gates nothing: the size the ROADMAP tracks (code and
# DESIGN.md), and the knobs a node exposes (node.Options fields, hirepnode
# flags).
echo "== non-test Go line counts"
echo "internal/node: $(goloc internal/node)"
echo "cmd/hirepnode: $(goloc cmd/hirepnode)"
echo "root module:   $(goloc .)"
echo "DESIGN.md:     $(( $(wc -c < DESIGN.md) / 1024 )) KB"
echo "node.Options:  $(awk '/^type Options struct/ { in_opts = 1; next } in_opts && /^}/ { exit }
    in_opts && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n + 0 }' internal/node/node.go) fields"
echo "hirepnode:     $(grep -cE 'flag\.(Bool|Int|Int64|Uint|Float64|String|Duration)\(' cmd/hirepnode/main.go) flags"

echo "== go vet ./..."
go vet ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# Campaign smoke (DESIGN.md §13, §15): a small sybil flood and slander cell
# against both backends — the sim world and a live fleet with a real (cheap)
# admission gate — plus one live lying-agent run (tampering agent detected,
# quarantined, and evicted through the audit plane while queries keep
# answering) must score sanely under the race detector. The package is
# covered by the full pass above; this explicit line keeps the adversarial
# harness from silently dropping out of the gate if the test tree moves.
echo "== campaign smoke (sybil flood + slander cell + lying agent, -race)"
go test -race -count=1 -run 'TestSimAdmissionRaisesCost|TestLiveBackendSmoke|TestLiveLyingAgentCampaign' ./internal/campaign/

# The simulator's tables are a function of the seed (DESIGN.md §6): two runs
# of the CLI must write byte-identical CSV for all 13 experiments, at whatever
# parallelism this host gives them. TestTablesRepeat holds the same line
# inside the package; this holds it at the surface a user runs.
echo "== hirepsim tables repeat (two -quick -exp all runs, cmp every CSV)"
simtmp=$(mktemp -d)
trap 'rm -rf "$simtmp"' EXIT
go build -o "$simtmp/hirepsim" ./cmd/hirepsim
for run in a b; do
    "$simtmp/hirepsim" -quick -exp all -csv -outdir "$simtmp/$run" >/dev/null
done
[[ $(ls "$simtmp/a" | wc -l) -eq 13 ]] || { echo "verify: FAIL — expected 13 CSV tables, got $(ls "$simtmp/a" | wc -l)"; exit 1; }
for f in "$simtmp"/a/*.csv; do
    cmp "$f" "$simtmp/b/$(basename "$f")" || { echo "verify: FAIL — $(basename "$f") differs between two runs of one seed"; exit 1; }
done

# bench/ is a separate module compiled against internal/*, so the root ./...
# patterns above never see it: a rename there breaks the benchmark silently.
# No file under bench/ may be edited to make this pass.
echo "== bench module (vet + race tests against this tree)"
(cd bench && go vet ./... && go test -race ./...)

# The only programs outside the tests that drive the live report path: each
# must run to completion and exit 0.
echo "== live examples smoke"
timeout 60 go run ./examples/livenet >/dev/null
timeout 60 go run ./examples/anonymity >/dev/null
timeout 60 go run ./cmd/hirepnode -demo >/dev/null

if [[ $fast -eq 1 ]]; then
    echo "verify: OK (benchmarks skipped)"
    exit 0
fi

echo "== simnet benchmarks"
out=$(go test -run '^$' -bench 'BenchmarkSend|BenchmarkLatency' -benchmem ./internal/simnet/ 2>&1)
echo "$out"

# One simulated transaction of each system on 300 nodes (root bench_test.go):
# the unit the experiments repeat tens of thousands of times. The flood
# baseline sends ~1650 messages per poll and must allocate for none of them
# (DESIGN.md §6): its payloads live in per-node records the System owns.
# BenchmarkBootstrap builds a 300-node hiREP world and runs every peer's
# agent-list walk. It must stay at or under 4 MB allocated per op (2.8 MB
# measured): one math/rand state table per peer and agent stream alone was
# ~4.4 MB of the 6.4 MB the map-per-walk bootstrap before it allocated.
echo "== simulated-transaction benchmarks (hiREP tx, voting poll, bootstrap)"
tx_out=$(go test -run '^$' -bench 'BenchmarkTransaction(Voting|Hirep)$|BenchmarkBootstrap$' -benchmem -count=3 . 2>&1)
echo "$tx_out"
out="$out
$tx_out"
BENCH_OUT="$tx_out" python3 - <<'EOF'
import os, re, sys
out = os.environ["BENCH_OUT"]
allocs = [int(a) for a in re.findall(r"^BenchmarkTransactionVoting\S*\s.*?(\d+) allocs/op", out, re.M)]
if not allocs:
    print("verify: FAIL — BenchmarkTransactionVoting did not run")
    sys.exit(1)
print(f"voting poll: {max(allocs)} allocs/op (gate <= 16)")
if max(allocs) > 16:
    print(f"verify: FAIL — a voting poll allocates {max(allocs)} times; something allocates per message again")
    sys.exit(1)
boot = [int(b) for b in re.findall(r"^BenchmarkBootstrap\S*\s.*?(\d+) B/op", out, re.M)]
if not boot:
    print("verify: FAIL — BenchmarkBootstrap did not run")
    sys.exit(1)
print(f"bootstrap: {max(boot) / 1e6:.2f} MB/op (gate <= 4 MB)")
if max(boot) > 4_000_000:
    print(f"verify: FAIL — a 300-node bootstrap allocates {max(boot) / 1e6:.2f} MB/op; per-stream or per-walk state is back")
    sys.exit(1)
EOF

echo "== appending run to BENCH_simnet.json"
record_bench "$out" BENCH_simnet.json

echo "== repstore benchmarks"
out=$(go test -run '^$' -bench 'BenchmarkRepstore' -benchmem ./internal/repstore/ 2>&1)
echo "$out"

# The replicated-ingest acceptance bound (within 10% of the unreplicated
# WAL baseline, DESIGN.md §10) is tighter than this container's noise
# floor, which drifts on minute scales — consecutive sample blocks land on
# different load regimes. Time-interleaved A/B pairs cancel the drift, so
# the recorded medians for these two benchmarks draw on alternated short
# runs on top of the block sample above.
echo "== repstore replicated-ingest A/B pairs"
for _ in 1 2 3 4 5 6; do
    out="$out
$(go test -run '^$' -bench 'BenchmarkRepstoreIngest$/^wal$' -benchtime 0.5s -benchmem -count=1 ./internal/repstore/ 2>&1 | grep 'ns/op' || true)
$(go test -run '^$' -bench 'BenchmarkRepstoreIngestReplicated$' -benchtime 0.5s -benchmem -count=1 ./internal/repstore/ 2>&1 | grep 'ns/op' || true)"
done
BENCH_OUT="$out" python3 - <<'EOF'
import os, re, statistics
d = {}
for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", os.environ["BENCH_OUT"], re.M):
    d.setdefault(m.group(1), []).append(float(m.group(2)))
w = d.get("BenchmarkRepstoreIngest/wal"), d.get("BenchmarkRepstoreIngestReplicated")
if all(w):
    r = statistics.median(w[1]) / statistics.median(w[0])
    print(f"replication tap ingest overhead (median): {100 * (r - 1):+.1f}%")
EOF

# Evidence-retention ingest overhead (DESIGN.md §14): with the evidence log
# on, every report costs ~133 extra WAL bytes (reporter key + signed wire)
# through the same fsync group commit. Against real commit latency that must
# stay a small constant tax — the design bound is 5% on the durable path.
# Same interleaved-pair sampling as above, and the same 15% noise headroom as
# the admission gate: a real regression (per-report fsync, evidence copied
# under the shard lock) shows up as 2x, not 1.2x.
echo "== repstore evidence-retention A/B pairs"
for _ in 1 2 3 4 5 6; do
    out="$out
$(go test -run '^$' -bench 'BenchmarkRepstoreIngestEvidence/off' -benchtime 0.5s -count=1 ./internal/repstore/ 2>&1 | grep 'ns/op' || true)
$(go test -run '^$' -bench 'BenchmarkRepstoreIngestEvidence/on' -benchtime 0.5s -count=1 ./internal/repstore/ 2>&1 | grep 'ns/op' || true)"
done
BENCH_OUT="$out" python3 - <<'EOF'
import os, re, statistics, sys
d = {}
for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", os.environ["BENCH_OUT"], re.M):
    d.setdefault(m.group(1), []).append(float(m.group(2)))
off = d.get("BenchmarkRepstoreIngestEvidence/off")
on = d.get("BenchmarkRepstoreIngestEvidence/on")
if off and on:
    r = statistics.median(on) / statistics.median(off)
    print(f"evidence-retention ingest overhead (median): {100 * (r - 1):+.1f}% (design bound 5%)")
    if r > 1.20:
        print(f"verify: FAIL — evidence retention costs {100 * (r - 1):.1f}% on durable ingest")
        sys.exit(1)
EOF

# Proof serving and verification (DESIGN.md §14), recorded alongside the
# store numbers they depend on: Assemble is the agent's per-request serving
# cost at the documented retention cap (256 wires), Verify the querier's
# price of not trusting the agent — one Ed25519 verify per wire the first
# time (plain: no memo; cold: a memo that misses every wire), one SHA-256
# lookup per wire once the node's verifier has seen it (warm). A warm verify
# must cost at most a tenth of a cold one, or the memo is not standing in for
# the signatures; the measured ratio is nearer 1/40. cold/plain is what a miss
# adds to the check it could not avoid; it is printed, not gated.
echo "== proof benchmarks (bundle assembly + verification at cap 256)"
proof_out=$(go test -run '^$' -bench 'BenchmarkProof' -benchmem ./internal/proof/ 2>&1)
echo "$proof_out"
out="$out
$proof_out"
BENCH_OUT="$proof_out" python3 - <<'EOF'
import os, re, sys
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", os.environ["BENCH_OUT"], re.M)}
plain, cold, warm = (ns.get("BenchmarkProofVerify/" + k) for k in ("plain", "cold", "warm"))
if not (plain and cold and warm):
    print("verify: FAIL — BenchmarkProofVerify/{plain,cold,warm} did not run")
    sys.exit(1)
print(f"proof verify warm vs cold: {warm / 1e3:.0f} us vs {cold / 1e3:.0f} us = 1/{cold / warm:.0f} (gate <= 1/10)")
print(f"proof verify cold vs plain: {cold / 1e3:.0f} us vs {plain / 1e3:.0f} us = {cold / plain:.2f}x (informational)")
if warm * 10 > cold:
    print(f"verify: FAIL — a warm proof verify costs {warm / 1e3:.0f} us, more than a tenth of a cold one ({cold / 1e3:.0f} us)")
    sys.exit(1)
EOF

echo "== appending run to BENCH_repstore.json"
record_bench "$out" BENCH_repstore.json

echo "== node benchmarks (retry-wrapper overhead + live protocol paths)"
out=$(go test -run '^$' -bench 'BenchmarkRoundTripRetry|BenchmarkLive|BenchmarkRelayHandshake|BenchmarkIngest' -benchmem ./internal/node/ 2>&1)
echo "$out"

# Batched acked ingest must hold >= 5x the reports/sec of the single-report
# round-trip path (DESIGN.md §11). BenchmarkIngestBatched moves 256 reports
# per op, so the ratio is (single ns/op * 256) / batched ns/op.
BENCH_OUT="$out" python3 - <<'EOF'
import os, re
out = os.environ["BENCH_OUT"]
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", out, re.M)}
s, b = ns.get("BenchmarkIngestSingle"), ns.get("BenchmarkIngestBatched")
if s and b:
    print(f"batched ingest speedup over single-report: {s * 256 / b:.1f}x (target >= 5x)")
EOF

# The onion memo (DESIGN.md §5.1) stands in for a relay hop's X25519 +
# AES-GCM on every use of an onion after the first. A hit must cost at most a
# tenth of the cold peel it replaces, or the memo is not paying for its lock;
# the measured ratio is nearer 1/800.
echo "== onion memo benchmarks (cold peel vs memo hit)"
memo_out=$(go test -run '^$' -bench 'BenchmarkOnionMemo' -benchmem ./internal/onion/ 2>&1)
echo "$memo_out"
out="$out
$memo_out"
BENCH_OUT="$memo_out" python3 - <<'EOF'
import os, re, sys
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", os.environ["BENCH_OUT"], re.M)}
cold, hit = ns.get("BenchmarkOnionMemo/cold"), ns.get("BenchmarkOnionMemo/hit")
if not (cold and hit):
    print("verify: FAIL — BenchmarkOnionMemo/{cold,hit} did not run")
    sys.exit(1)
print(f"onion memo hit vs cold peel: {hit:.0f} ns vs {cold:.0f} ns = 1/{cold / hit:.0f} (gate <= 1/10)")
if hit * 10 > cold:
    print(f"verify: FAIL — a memo hit costs {hit:.0f} ns, more than a tenth of a cold peel ({cold:.0f} ns)")
    sys.exit(1)
EOF

# The sealed exchange (DESIGN.md §5.1) keys the reply from the request's own
# X25519 agreement: the request box pays for key generation and agreement on
# both ends, the reply box is AES-GCM under a key both ends already hold. A
# reply sealed and opened must cost at most a tenth of a request sealed and
# opened, or a second agreement has crept back in; the measured ratio is
# nearer 1/80.
echo "== sealed-exchange benchmarks (request box vs reply box, seal + open)"
seal_out=$(go test -run '^$' -bench 'BenchmarkExchangeSeal' -benchmem ./internal/pkc/ 2>&1)
echo "$seal_out"
out="$out
$seal_out"
BENCH_OUT="$seal_out" python3 - <<'EOF'
import os, re, sys
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", os.environ["BENCH_OUT"], re.M)}
req, rep = ns.get("BenchmarkExchangeSeal/request"), ns.get("BenchmarkExchangeSeal/reply")
if not (req and rep):
    print("verify: FAIL — BenchmarkExchangeSeal/{request,reply} did not run")
    sys.exit(1)
print(f"reply box vs request box, seal + open: {rep:.0f} ns vs {req:.0f} ns = 1/{req / rep:.0f} (gate <= 1/10)")
if rep * 10 > req:
    print(f"verify: FAIL — a reply costs {rep:.0f} ns to seal and open, more than a tenth of a request ({req:.0f} ns)")
    sys.exit(1)
EOF

# Admission-gate steady-state overhead (DESIGN.md §13): once an identity is
# admitted, the gate adds one SHA-256 + a map hit per batch, which must stay
# within 5% of the ungated batched path. Both benchmarks move 256 reports
# per op, so the ratio is direct. 15% headroom over the 5% design bound
# absorbs this container's noise floor; a real regression (per-report
# hashing, lock contention on the gate) shows up as 2x, not 1.2x.
BENCH_OUT="$out" python3 - <<'EOF'
import os, re, sys
out = os.environ["BENCH_OUT"]
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", out, re.M)}
b, a = ns.get("BenchmarkIngestBatched"), ns.get("BenchmarkIngestAdmission")
if b and a:
    r = a / b
    print(f"admission-gated ingest overhead vs ungated batched: {100 * (r - 1):+.1f}% (design bound 5%)")
    if r > 1.20:
        print(f"verify: FAIL — admission gate costs {100 * (r - 1):.1f}% on the batched ingest path")
        sys.exit(1)
EOF

# Auditor steady-state overhead (DESIGN.md §15): with a peer sweeping the
# agent at the campaign's default audit cadence, batched ingest must stay
# within 5% of the unaudited path — audit sweeps are read-side proof fetches
# and must not tax the ingest hot path. Same interleaved-pair sampling and
# the same 15% noise headroom as the gates above: a real regression (proof
# assembly under the ingest lock, per-report audit work) shows up as 2x.
echo "== auditor-overhead A/B pairs"
for _ in 1 2 3 4 5 6; do
    out="$out
$(go test -run '^$' -bench 'BenchmarkIngestBatched$' -benchtime 0.5s -count=1 ./internal/node/ 2>&1 | grep 'ns/op' || true)
$(go test -run '^$' -bench 'BenchmarkIngestAudited$' -benchtime 0.5s -count=1 ./internal/node/ 2>&1 | grep 'ns/op' || true)"
done
BENCH_OUT="$out" python3 - <<'EOF'
import os, re, statistics, sys
d = {}
for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", os.environ["BENCH_OUT"], re.M):
    d.setdefault(m.group(1), []).append(float(m.group(2)))
plain = d.get("BenchmarkIngestBatched")
audited = d.get("BenchmarkIngestAudited")
if plain and audited:
    r = statistics.median(audited) / statistics.median(plain)
    print(f"audited ingest overhead vs unaudited batched: {100 * (r - 1):+.1f}% (design bound 5%)")
    if r > 1.20:
        print(f"verify: FAIL — background audit costs {100 * (r - 1):.1f}% on the batched ingest path")
        sys.exit(1)
EOF

echo "== appending run to BENCH_node.json"
record_bench "$out" BENCH_node.json

echo "== transport benchmarks (pooled multiplexed session vs dial-per-frame)"
out=$(go test -run '^$' -bench 'BenchmarkRoundTripPooled$|BenchmarkRoundTripDirect$' -benchtime 2s ./internal/node/ 2>&1)
echo "$out"

# The pooled path must hold >= 5x the throughput of dial-per-frame
# (DESIGN.md §9); surface the ratio so a regression is visible at a glance.
BENCH_OUT="$out" python3 - <<'EOF'
import os, re
out = os.environ["BENCH_OUT"]
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", out, re.M)}
d, p = ns.get("BenchmarkRoundTripDirect"), ns.get("BenchmarkRoundTripPooled")
if d and p:
    print(f"pooled speedup over direct: {d / p:.1f}x")
EOF

echo "== appending run to BENCH_transport.json"
record_bench "$out" BENCH_transport.json

echo "verify: OK"
