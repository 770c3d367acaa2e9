#!/bin/sh
# Continuous-integration entry point: full build + test suite (which
# checks every example program's engine answer against the uncompiled
# reference kernel, and whose cram files pin every example program's
# answer), the perfbench self-test, then smoke passes over the CLIs and
# the daemon (probmc estimates, stats-json and trace documents, fault
# injection, budgets, checkpoints, metrics, journal crash recovery) and
# the bench compare gate.
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== tests =="
dune runtest

echo "== perfbench self-test =="
# Every benchmark workload at tiny sizes, both modes: a library change that
# breaks the benchmark's build or its answer checks fails here.
python3 perfbench/run.py --self-test

PROBDL=_build/default/bin/probdl.exe
PROBMC=_build/default/bin/probmc.exe

echo "== probmc smoke =="
"$PROBMC" estimate --target b0 --start a0 --samples 200 --burn-in 50 \
  examples/chains/barbell.mc > /dev/null
"$PROBMC" estimate --target p3 --start p1 --samples 200 --burn-in 50 \
  examples/chains/gambler.mc > /dev/null
echo "ok: examples/chains/*.mc"

echo "== stats-json smoke =="
# The probdb.stats/3 documents must parse as JSON and carry the core keys,
# including the /3 outcome and downgrade fields.
check_stats_json () {
  python3 -c '
import json, sys
doc = json.load(sys.stdin)
for key in ("engine", "steps", "draws", "elapsed_ms", "outcome", "downgrade"):
    if key not in doc:
        sys.exit(f"missing key {key!r} in stats JSON")
schema = doc.get("schema")
if schema != "probdb.stats/3":
    sys.exit(f"unexpected schema {schema!r}")
if doc["outcome"].get("status") not in ("complete", "partial"):
    sys.exit(f"bad outcome {doc['outcome']!r}")
' || { echo "stats JSON check failed for $1" >&2; exit 1; }
}
"$PROBDL" run examples/programs/coin_flip.pdl -s noninflationary --seed 7 --stats-json \
  | check_stats_json coin_flip.pdl
"$PROBMC" estimate --target b0 --start a0 --samples 200 --burn-in 50 --stats-json \
  examples/chains/barbell.mc | check_stats_json barbell.mc
# A positive pc-table program is answered by one lineage fixpoint.
"$PROBDL" run examples/programs/uncertain_reach.pdl --stats-json \
  | check_stats_json uncertain_reach.pdl
"$PROBDL" run examples/programs/uncertain_reach.pdl --stats-json | python3 -c '
import json, sys
doc = json.load(sys.stdin)
method, exact = doc["diagnostics"].get("pc-table method"), doc["exact"]
if method != "lineage" or exact != "1/8":
    sys.exit(f"pc-table method {method!r}, exact {exact!r}: want lineage, 1/8")
' || { echo "lineage stats check failed for uncertain_reach.pdl" >&2; exit 1; }
# Every exact non-inflationary answer is solved on the lumped chain, even a
# reducible one such as the coin chain, and reports the event's cone and
# the time spent slicing to it.
"$PROBDL" run examples/programs/coin_flip.pdl -s noninflationary --stats-json | python3 -c '
import json, sys
doc = json.load(sys.stdin)
diags, exact = doc["diagnostics"], doc["exact"]
states, classes = diags.get("chain states"), diags.get("lumped classes")
if exact != "1/3" or states is None or classes is None or int(classes) > int(states):
    sys.exit(f"exact {exact!r}, lumped classes {classes!r}, chain states {states!r}: want 1/3, classes <= states")
cone, phases = diags.get("cone relations", ""), sorted(doc["phases"])
if " of " not in cone or "slice" not in phases:
    sys.exit(f"cone relations {cone!r}, phases {phases!r}: want i of n and a slice phase")
' || { echo "lumped stats check failed for coin_flip.pdl" >&2; exit 1; }
echo "ok: --stats-json documents parse with engine/steps/draws/elapsed_ms/outcome/downgrade; pc-table lineage answers 1/8; coin_flip lumps and reports its cone"

echo "== multi-event smoke =="
# Several ?- events are answered by one run each, on each event's own
# cone: five independent lazy 4-cycles with one event per walker give five
# documents of 4 chain states each, never the 4^5-state product.
FIVE_TMP=$(mktemp -d)
for w in 1 2 3 4 5; do
  echo "?C$w(Y) @W :- C$w(X), e$w(X, Y, W)."
  echo "C$w(n0)."
  for i in 0 1 2 3; do echo "e$w(n$i, n$(( (i + 1) % 4 )), 1). e$w(n$i, n$i, 1)."; done
done > "$FIVE_TMP/five.pdl"
for w in 1 2 3 4 5; do echo "?- C$w(n0)."; done >> "$FIVE_TMP/five.pdl"
timeout 20 "$PROBDL" run "$FIVE_TMP/five.pdl" -s noninflationary --stats-json | python3 -c '
import json, sys
docs = json.load(sys.stdin)
if len(docs) != 5:
    sys.exit(f"want 5 documents, got {len(docs)}")
for doc in docs:
    states, exact = doc["diagnostics"].get("chain states"), doc["exact"]
    if states != "4" or exact != "1/4":
        sys.exit(f"chain states {states!r}, exact {exact!r}: want 4, 1/4")
' || { echo "multi-event smoke failed" >&2; rm -rf "$FIVE_TMP"; exit 1; }
rm -rf "$FIVE_TMP"
echo "ok: 5 events, 5 documents, 4 chain states each"

echo "== trace smoke =="
# --trace files must be valid Chrome trace-event JSON: known phase values,
# balanced B/E spans per track, non-decreasing integer timestamps per track,
# pid = tid, and the probdb.series/1 block riding along.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
check_trace_json () {
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
if not events:
    sys.exit("empty traceEvents")
depth, last_ts = {}, {}
for e in events:
    ph, tid, ts = e["ph"], e["tid"], e["ts"]
    if ph not in ("B", "E", "X", "i"):
        sys.exit(f"unknown ph {ph!r}")
    if not isinstance(ts, int) or ts < 0:
        sys.exit(f"bad ts {ts!r}")
    if e["pid"] != tid:
        sys.exit("pid != tid")
    if ts < last_ts.get(tid, 0):
        sys.exit(f"ts went backwards on tid {tid}")
    last_ts[tid] = ts
    if ph == "B":
        depth[tid] = depth.get(tid, 0) + 1
    elif ph == "E":
        depth[tid] = depth.get(tid, 0) - 1
        if depth[tid] < 0:
            sys.exit(f"E without B on tid {tid}")
    elif ph == "X" and (not isinstance(e["dur"], int) or e["dur"] < 0):
        sys.exit(f"bad dur {e['dur']!r}")
for tid, d in depth.items():
    if d != 0:
        sys.exit(f"unbalanced spans on tid {tid}")
if doc["series"]["schema"] != "probdb.series/1":
    sys.exit(f"unexpected series schema {doc['series']['schema']!r}")
' "$1" || { echo "trace JSON check failed for $2" >&2; exit 1; }
}
# Exact chain construction (the E4 shape): per-BFS-level instants.
"$PROBDL" run examples/programs/walk_distribution.pdl -s noninflationary --seed 7 \
  --trace "$TRACE_TMP/pdl.json" > /dev/null
check_trace_json "$TRACE_TMP/pdl.json" walk_distribution.pdl
# Sharded sampling: one pool.shard span per shard plus estimate series.
"$PROBMC" estimate --target b0 --start a0 --samples 400 --burn-in 50 --domains 2 \
  --trace "$TRACE_TMP/mc.json" examples/chains/barbell.mc > /dev/null
check_trace_json "$TRACE_TMP/mc.json" barbell.mc
echo "ok: --trace files parse as Chrome trace-event JSON"

echo "== fault-injection matrix =="
# Deterministic faults via PROBDB_FAULT: a killed shard fails the run with
# exit 1 naming the shard; two kills name both; a flaky shard is retried
# once and must be bit-transparent; a delayed shard only slows things down.
FAULT_ARGS="run examples/programs/reachability.pdl -s inflationary -m sample"
FAULT_OPTS="--burn-in 20 --eps 0.1 --delta 0.1 --seed 7 -j 4"
status=0
PROBDB_FAULT='kill:shard=3,after=1' "$PROBDL" $FAULT_ARGS $FAULT_OPTS \
  > /dev/null 2> "$TRACE_TMP/kill.err" || status=$?
[ "$status" -eq 1 ] || { echo "fault kill: expected exit 1, got $status" >&2; exit 1; }
grep -q 'shard 3' "$TRACE_TMP/kill.err" \
  || { echo "fault kill: stderr does not name shard 3" >&2; exit 1; }
status=0
PROBDB_FAULT='kill:shard=3,after=1;kill:shard=5,after=0' "$PROBDL" $FAULT_ARGS $FAULT_OPTS \
  > /dev/null 2> "$TRACE_TMP/kill2.err" || status=$?
[ "$status" -eq 1 ] || { echo "fault two-kills: expected exit 1, got $status" >&2; exit 1; }
grep -q 'shard 3' "$TRACE_TMP/kill2.err" && grep -q 'shards 5' "$TRACE_TMP/kill2.err" \
  || { echo "fault two-kills: stderr must name both shards" >&2; exit 1; }
clean=$("$PROBDL" $FAULT_ARGS $FAULT_OPTS | grep '^answer')
flaky=$(PROBDB_FAULT='flaky:shard=2,after=1' "$PROBDL" $FAULT_ARGS $FAULT_OPTS | grep '^answer')
[ "$clean" = "$flaky" ] \
  || { echo "fault flaky: retried run diverged ($flaky vs $clean)" >&2; exit 1; }
delayed=$(PROBDB_FAULT='delay:shard=1,ms=1' "$PROBDL" $FAULT_ARGS $FAULT_OPTS | grep '^answer')
[ "$clean" = "$delayed" ] \
  || { echo "fault delay: delayed run diverged ($delayed vs $clean)" >&2; exit 1; }
# The same matrix on a positive pc-table program, which samples on its
# ground program with per-domain propagation state: a retried shard must
# replay bit-identically on whatever scratch its domain holds.
GROUND_ARGS="run examples/programs/uncertain_reach.pdl -m sample"
status=0
PROBDB_FAULT='kill:shard=3,after=1' "$PROBDL" $GROUND_ARGS $FAULT_OPTS \
  > /dev/null 2> "$TRACE_TMP/gkill.err" || status=$?
[ "$status" -eq 1 ] || { echo "ground fault kill: expected exit 1, got $status" >&2; exit 1; }
grep -q 'shard 3' "$TRACE_TMP/gkill.err" \
  || { echo "ground fault kill: stderr does not name shard 3" >&2; exit 1; }
gclean=$("$PROBDL" $GROUND_ARGS $FAULT_OPTS)
echo "$gclean" | grep -q '^pc-table sampler: ground' \
  || { echo "ground fault matrix: uncertain_reach.pdl did not take the ground path" >&2; exit 1; }
gclean=$(echo "$gclean" | grep '^answer')
gflaky=$(PROBDB_FAULT='flaky:shard=2,after=1' "$PROBDL" $GROUND_ARGS $FAULT_OPTS | grep '^answer')
[ "$gclean" = "$gflaky" ] \
  || { echo "ground fault flaky: retried run diverged ($gflaky vs $gclean)" >&2; exit 1; }
gdelayed=$(PROBDB_FAULT='delay:shard=1,ms=1' "$PROBDL" $GROUND_ARGS $FAULT_OPTS | grep '^answer')
[ "$gclean" = "$gdelayed" ] \
  || { echo "ground fault delay: delayed run diverged ($gdelayed vs $gclean)" >&2; exit 1; }
# And on a non-inflationary walk, which steps through a per-domain memo of
# each state's draws: a retried shard reuses its domain's memo and must
# still replay bit-identically, and -j 1 must print the -j 4 answer.
WALK_ARGS="run examples/programs/reachability.pdl -s noninflationary -m sample"
status=0
PROBDB_FAULT='kill:shard=3,after=1' "$PROBDL" $WALK_ARGS $FAULT_OPTS \
  > /dev/null 2> "$TRACE_TMP/wkill.err" || status=$?
[ "$status" -eq 1 ] || { echo "walk fault kill: expected exit 1, got $status" >&2; exit 1; }
grep -q 'shard 3' "$TRACE_TMP/wkill.err" \
  || { echo "walk fault kill: stderr does not name shard 3" >&2; exit 1; }
wclean=$("$PROBDL" $WALK_ARGS $FAULT_OPTS)
echo "$wclean" | grep -q '^stepper   : memo' \
  || { echo "walk fault matrix: reachability.pdl did not step through the memo" >&2; exit 1; }
wclean=$(echo "$wclean" | grep '^answer')
wflaky=$(PROBDB_FAULT='flaky:shard=2,after=1' "$PROBDL" $WALK_ARGS $FAULT_OPTS | grep '^answer')
[ "$wclean" = "$wflaky" ] \
  || { echo "walk fault flaky: retried run diverged ($wflaky vs $wclean)" >&2; exit 1; }
wdelayed=$(PROBDB_FAULT='delay:shard=1,ms=1' "$PROBDL" $WALK_ARGS $FAULT_OPTS | grep '^answer')
[ "$wclean" = "$wdelayed" ] \
  || { echo "walk fault delay: delayed run diverged ($wdelayed vs $wclean)" >&2; exit 1; }
WALK_OPTS=${FAULT_OPTS% -j 4}
wone=$("$PROBDL" $WALK_ARGS $WALK_OPTS -j 1 | grep '^answer')
wtwo=$("$PROBDL" $WALK_ARGS $WALK_OPTS -j 2 | grep '^answer')
[ "$wclean" = "$wone" ] && [ "$wone" = "$wtwo" ] \
  || { echo "walk: -j 1, -j 2 and -j 4 answers differ ($wone, $wtwo, $wclean)" >&2; exit 1; }
echo "ok: kill is fatal and named, flaky retry is transparent, delay is harmless (kernel, ground and memo samplers; walk answers equal at -j 1, 2, 4)"

echo "== ground sampler: domain-count independence =="
# The non-hierarchical R(x), S(x,y), T(y) query over a k = 10 grid (120
# flags): exact lineage passes the default state budget there, the ground
# sampler answers it at once, and -j 1 and -j 2 must print the same answer.
K="0 1 2 3 4 5 6 7 8 9"
{
  for i in $K; do echo "var r$i = { true: 1/2, false: 1/2 }. r(l$i) when r$i = true."; done
  for i in $K; do echo "var t$i = { true: 1/2, false: 1/2 }. t(m$i) when t$i = true."; done
  for i in $K; do for j in $K; do
    echo "var s${i}_$j = { true: 1/2, false: 1/2 }. s(l$i, m$j) when s${i}_$j = true."
  done; done
  echo "Q(ok) :- r(X), s(X, Y), t(Y). ?- Q(ok)."
} > "$TRACE_TMP/grid10.pdl"
g1=$(timeout 20 "$PROBDL" run "$TRACE_TMP/grid10.pdl" -m sample --seed 5 -j 1 | grep '^answer')
g2=$(timeout 20 "$PROBDL" run "$TRACE_TMP/grid10.pdl" -m sample --seed 5 -j 2 | grep '^answer')
[ -n "$g1" ] && [ "$g1" = "$g2" ] \
  || { echo "grid10: -j 1 and -j 2 answers differ ($g1 vs $g2)" >&2; exit 1; }
echo "ok: k = 10 grid, ${g1#answer    : } at -j 1 and -j 2"

echo "== budget / degradation smoke =="
# A sample budget truncates the run: exit 3 and a partial outcome line.
status=0
"$PROBDL" $FAULT_ARGS $FAULT_OPTS --sample-budget 40 > "$TRACE_TMP/partial.out" || status=$?
[ "$status" -eq 3 ] || { echo "sample budget: expected exit 3, got $status" >&2; exit 1; }
grep -q '^outcome   : partial' "$TRACE_TMP/partial.out" \
  || { echo "sample budget: no partial outcome line" >&2; exit 1; }
# Under --on-budget fail the same truncation is an error.
status=0
"$PROBDL" $FAULT_ARGS $FAULT_OPTS --sample-budget 40 --on-budget fail \
  > /dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "on-budget fail: expected exit 1, got $status" >&2; exit 1; }
# Under --on-budget fallback an exact run that blows its state budget is
# restarted as a sampler and completes, recording the downgrade in stats/3.
"$PROBDL" run examples/programs/walk_distribution.pdl -s noninflationary -m exact \
  --state-budget 2 --on-budget fallback --eps 0.1 --delta 0.1 --burn-in 50 --seed 7 \
  --stats-json | python3 -c '
import json, sys
doc = json.load(sys.stdin)[0]
dg = doc["downgrade"]
if not dg or dg["from"] != "exact" or dg["to"] != "sampling" or dg["trigger"] != "state-budget":
    sys.exit(f"bad downgrade record {dg!r}")
if doc["outcome"]["status"] != "complete":
    sys.exit(f"fallback run should complete, got {doc['outcome']!r}")
' || { echo "fallback smoke failed" >&2; exit 1; }
# The partitioned method runs under the same state budget: partial, exit 3.
status=0
"$PROBDL" run examples/programs/reachability.pdl -s noninflationary -m partitioned \
  --state-budget 2 > "$TRACE_TMP/partitioned.out" || status=$?
[ "$status" -eq 3 ] || { echo "partitioned state budget: expected exit 3, got $status" >&2; exit 1; }
grep -q '^outcome   : partial' "$TRACE_TMP/partitioned.out" \
  || { echo "partitioned state budget: no partial outcome line" >&2; exit 1; }
# A budget that is not positive is refused before any work starts.
status=0
"$PROBDL" run examples/programs/reachability.pdl --state-budget=0 > /dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "state budget 0: expected exit 1, got $status" >&2; exit 1; }
# Usage errors are exit 2, distinct from runtime errors (1) and partial (3).
status=0
"$PROBDL" run --no-such-flag > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "usage: expected exit 2, got $status" >&2; exit 1; }
echo "ok: partial=3, fail-policy=1, fallback downgrades to sampling, partitioned budget=3, budget 0 refused, usage=2"

echo "== checkpoint / interrupt / resume smoke =="
# SIGINT mid-run must exit 3 and leave a checkpoint from which --resume
# reproduces the uninterrupted answer bit-for-bit.  The run must outlast
# the one-second sleep by a margin: the memoised walk takes a few seconds
# at this burn-in.
CKPT_ARGS="run examples/programs/reachability.pdl -s noninflationary -m sample"
CKPT_OPTS="--burn-in 20000 --eps 0.02 --delta 0.02 --seed 7 -j 4"
ref=$("$PROBDL" $CKPT_ARGS $CKPT_OPTS | grep '^answer')
"$PROBDL" $CKPT_ARGS $CKPT_OPTS --checkpoint "$TRACE_TMP/ci.ckpt" \
  > "$TRACE_TMP/int.out" 2>&1 &
pid=$!
sleep 1
kill -INT "$pid"
status=0; wait "$pid" || status=$?
[ "$status" -eq 3 ] || { echo "interrupt: expected exit 3, got $status" >&2; exit 1; }
grep -q 'interrupted' "$TRACE_TMP/int.out" \
  || { echo "interrupt: no interrupted outcome in output" >&2; exit 1; }
[ -f "$TRACE_TMP/ci.ckpt" ] || { echo "interrupt: checkpoint not written" >&2; exit 1; }
resumed=$("$PROBDL" $CKPT_ARGS $CKPT_OPTS --resume "$TRACE_TMP/ci.ckpt" | grep '^answer')
[ "$ref" = "$resumed" ] \
  || { echo "resume diverged from uninterrupted run ($resumed vs $ref)" >&2; exit 1; }
echo "ok: SIGINT -> exit 3 + checkpoint; resume is bit-identical ($ref)"

echo "== daemon smoke =="
# Start the query daemon, SIGKILL it to fabricate a genuinely stale socket,
# then check a fresh start cleans the socket up and serves: 4 concurrent
# clients under distinct tenants must each get an answer exact-identical to
# the one-shot CLI, and SIGTERM must drain, exit 0 and remove the socket.
PROBDBD=_build/default/bin/probdbd.exe
DSOCK="$TRACE_TMP/probdbd.sock"
"$PROBDBD" serve --socket "$DSOCK" 2> "$TRACE_TMP/daemon0.err" &
dpid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do [ -S "$DSOCK" ] && break; sleep 0.2; done
[ -S "$DSOCK" ] || { echo "daemon: first start never bound its socket" >&2; exit 1; }
kill -KILL "$dpid"
wait "$dpid" 2> /dev/null || true
[ -S "$DSOCK" ] || { echo "daemon: SIGKILL should leave the socket behind" >&2; exit 1; }
"$PROBDBD" serve --socket "$DSOCK" 2> "$TRACE_TMP/daemon.err" &
dpid=$!
python3 - "$DSOCK" <<'PY' || { echo "daemon: concurrent client check failed" >&2; exit 1; }
import json, socket, subprocess, sys, threading, time

sock_path = sys.argv[1]
src = open("examples/programs/reachability.pdl").read()
cli = json.loads(
    subprocess.run(
        ["_build/default/bin/probdl.exe", "run",
         "examples/programs/reachability.pdl", "--stats-json"],
        capture_output=True, check=True, text=True).stdout)
want_exact, want_p = cli["exact"], cli["probability"]
errors = []

def client(k):
    s = socket.socket(socket.AF_UNIX)
    for _ in range(100):
        try:
            s.connect(sock_path)
            break
        except OSError:
            time.sleep(0.05)
    else:
        errors.append(f"client {k}: cannot connect")
        return
    f = s.makefile("rw")
    f.write(json.dumps({"op": "query", "id": f"q{k}",
                        "tenant": f"tenant{k}", "source": src}) + "\n")
    f.flush()
    resp = json.loads(f.readline())
    if not resp.get("ok"):
        errors.append(f"client {k}: {resp}")
    elif resp["report"]["exact"] != want_exact or resp["report"]["probability"] != want_p:
        errors.append(f"client {k}: answer diverged from one-shot CLI: {resp['report']['exact']!r}")
    elif resp.get("tenant") != f"tenant{k}":
        errors.append(f"client {k}: wrong tenant echo {resp.get('tenant')!r}")
    s.close()

threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
if errors:
    sys.exit("; ".join(errors))
PY
grep -q 'removing stale socket' "$TRACE_TMP/daemon.err" \
  || { echo "daemon: restart did not report stale-socket cleanup" >&2; exit 1; }
kill -TERM "$dpid"
status=0
wait "$dpid" || status=$?
[ "$status" -eq 0 ] || { echo "daemon: SIGTERM exit $status, want 0" >&2; exit 1; }
[ ! -e "$DSOCK" ] || { echo "daemon: socket left behind after shutdown" >&2; exit 1; }
echo "ok: stale socket reclaimed, 4 tenants answered exactly, SIGTERM drains clean"

echo "== metrics smoke =="
# Telemetry plane end to end: queries from two tenants, then the metrics op
# must expose per-(tenant, class, outcome) histogram families in both the
# probdb.metrics/1 JSON and the Prometheus text, with _count exactly equal
# to the queries issued; probdbd top renders the same document; --log-json
# emits one structured line per request with unique correlation ids.
DSOCK2="$TRACE_TMP/probdbd_metrics.sock"
"$PROBDBD" serve --socket "$DSOCK2" --log-json 2> "$TRACE_TMP/daemon_metrics.log" &
dpid=$!
python3 - "$DSOCK2" <<'PY' || { echo "metrics smoke failed" >&2; exit 1; }
import json, socket, sys, time

sock_path = sys.argv[1]
s = socket.socket(socket.AF_UNIX)
for _ in range(100):
    try:
        s.connect(sock_path)
        break
    except OSError:
        time.sleep(0.05)
else:
    sys.exit("cannot connect to metrics daemon")
f = s.makefile("rw")

def rpc(doc):
    f.write(json.dumps(doc) + "\n")
    f.flush()
    return json.loads(f.readline())

src = "e(a). p(X) :- e(X). ?- p(a)."
issued = {"acme": 3, "zeta": 2}
corrs = set()
for tenant, n in issued.items():
    for i in range(n):
        resp = rpc({"op": "query", "id": f"{tenant}-{i}", "tenant": tenant,
                    "class": "interactive", "source": src})
        if not resp.get("ok"):
            sys.exit(f"query failed: {resp}")
        corr = resp.get("corr")
        if not corr or corr in corrs:
            sys.exit(f"bad or duplicate correlation id {corr!r}")
        corrs.add(corr)

m = rpc({"op": "metrics", "id": "m"})
if not m.get("ok"):
    sys.exit(f"metrics op failed: {m}")
doc, text = m["metrics"], m["prometheus"]
if doc["schema"] != "probdb.metrics/1":
    sys.exit(f"bad metrics schema {doc['schema']!r}")
fams = {fam["name"]: fam for fam in doc["families"]}
for name in ("probdb_requests_total", "probdb_request_seconds",
             "probdb_request_wait_seconds", "probdb_request_compile_seconds",
             "probdb_request_eval_seconds", "probdb_uptime_seconds",
             "probdb_gc_minor_words"):
    if name not in fams:
        sys.exit(f"family {name} missing from JSON document")
hist = fams["probdb_request_seconds"]["rows"]
for tenant, n in issued.items():
    labels = {"tenant": tenant, "class": "interactive", "outcome": "complete"}
    rows = [r for r in hist if r["labels"] == labels]
    if len(rows) != 1 or rows[0]["count"] != n:
        sys.exit(f"histogram count for {tenant}: want {n}, got {rows}")
    needle = (f'probdb_request_seconds_count{{tenant="{tenant}",'
              f'class="interactive",outcome="complete"}} {n}')
    if needle not in text:
        sys.exit(f"prometheus text missing {needle!r}")
if "# TYPE probdb_request_seconds histogram" not in text:
    sys.exit("prometheus text missing the histogram TYPE line")
if 'le="+Inf"' not in text:
    sys.exit("prometheus histogram missing the +Inf bucket")
s.close()
PY
# The live top client renders the same document (single-snapshot mode).
"$PROBDBD" top --socket "$DSOCK2" --once > "$TRACE_TMP/top.out"
grep -q 'acme' "$TRACE_TMP/top.out" && grep -q 'zeta' "$TRACE_TMP/top.out" \
  || { echo "probdbd top --once does not list the tenants" >&2; exit 1; }
kill -TERM "$dpid"
wait "$dpid" || { echo "metrics daemon unclean exit" >&2; exit 1; }
python3 - "$TRACE_TMP/daemon_metrics.log" <<'PY' || { echo "request log check failed" >&2; exit 1; }
import json, sys
reqs = []
for line in open(sys.argv[1]):
    line = line.strip()
    if not line.startswith("{"):
        continue  # the human-readable listening banner
    doc = json.loads(line)
    for key in ("ts", "ts_ns", "level", "event"):
        if key not in doc:
            sys.exit(f"log line missing {key!r}: {doc}")
    if doc["event"] == "request":
        reqs.append(doc)
queries = [d for d in reqs if d.get("op") == "query"]
if len(queries) != 5:
    sys.exit(f"want 5 query log lines, got {len(queries)}")
corrs = {d["corr"] for d in reqs}
if len(corrs) != len(reqs):
    sys.exit("correlation ids not unique across request log lines")
PY
echo "ok: exact per-tenant counts in JSON+Prometheus, top renders, logs carry unique corr ids"

echo "== chaos smoke: journal survives SIGKILL =="
# Crash-safety end to end: a daemon with --state-dir is SIGKILLed mid-traffic
# three times and restarted each time; after the final restart every acked
# load must answer bit-identically to a fault-free daemon, the Prometheus
# text must carry the journal replay counters, and a resilient CLI client
# (--retry) must complete a query against the recovered daemon.
CHAOS_STATE="$TRACE_TMP/chaos_state"
CHAOS_SOCK="$TRACE_TMP/probdbd_chaos.sock"
python3 - "$PROBDBD" "$CHAOS_SOCK" "$CHAOS_STATE" <<'PY' || { echo "chaos smoke failed" >&2; exit 1; }
import json, os, signal, socket, subprocess, sys, time

probdbd, sock_path, state_dir = sys.argv[1:4]

def start():
    return subprocess.Popen([probdbd, "serve", "--socket", sock_path,
                             "--state-dir", state_dir],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)

def answer(report):
    # Only the answer fields: the report also carries timings.
    return (report.get("exact"), report.get("probability"))

def connect():
    s = socket.socket(socket.AF_UNIX)
    for _ in range(200):
        try:
            s.connect(sock_path)
            return s
        except OSError:
            time.sleep(0.05)
    sys.exit("cannot connect to chaos daemon")

def rpc(f, doc):
    f.write(json.dumps(doc) + "\n")
    f.flush()
    return json.loads(f.readline())

def source(i):
    return f"c{i}_0(a).\nc{i}_1(X) :- c{i}_0(X).\n?- c{i}_1(a)."

# Fault-free reference: load + query six programs on a journal-less run
# (fresh state dir, clean shutdown), remembering every report verbatim.
answers = {}
p = start()
s = connect()
f = s.makefile("rw")
for i in range(6):
    r = rpc(f, {"op": "load", "id": f"ref-l{i}", "tenant": "chaos",
                "name": f"n{i}", "source": source(i)})
    if not r.get("ok"):
        sys.exit(f"reference load {i} failed: {r}")
    r = rpc(f, {"op": "query", "id": f"ref-q{i}", "tenant": "chaos",
                "name": f"n{i}"})
    if not r.get("ok"):
        sys.exit(f"reference query {i} failed: {r}")
    answers[f"n{i}"] = answer(r["report"])
s.close()
p.send_signal(signal.SIGTERM)
if p.wait() != 0:
    sys.exit("reference daemon unclean exit")
for fn in os.listdir(state_dir):
    os.unlink(os.path.join(state_dir, fn))

# Chaos run: three generations, each acks one load, fires a query and is
# SIGKILLed without reading the answer.
acked = []
p = start()
try:
    for gen in range(3):
        s = connect()
        fh = s.makefile("rw")
        name = f"n{len(acked)}"
        r = rpc(fh, {"op": "load", "id": f"g{gen}-load", "tenant": "chaos",
                     "name": name, "source": source(len(acked))})
        if not r.get("ok"):
            sys.exit(f"chaos load {name} failed: {r}")
        acked.append(name)
        fh.write(json.dumps({"op": "query", "id": f"g{gen}-q",
                             "tenant": "chaos", "name": name}) + "\n")
        fh.flush()
        p.send_signal(signal.SIGKILL)
        p.wait()
        s.close()
        p = start()

    # After the final restart every acked load answers exactly like the
    # fault-free daemon, and the replay counters are exposed.
    s = connect()
    fh = s.makefile("rw")
    for name in acked:
        r = rpc(fh, {"op": "query", "id": f"final-{name}", "tenant": "chaos",
                     "name": name})
        if not r.get("ok"):
            sys.exit(f"post-crash query {name} failed: {r}")
        if answer(r["report"]) != answers[name]:
            sys.exit(f"post-crash answer diverged for {name}: "
                     f"{answer(r['report'])!r} vs {answers[name]!r}")
    m = rpc(fh, {"op": "metrics", "id": "chaos-m"})
    if not m.get("ok"):
        sys.exit(f"metrics op failed: {m}")
    text = m["prometheus"]
    needle = f"probdb_journal_replayed_records {len(acked)}"
    if needle not in text:
        sys.exit(f"prometheus text missing {needle!r}")
    if "probdb_journal_appends_total" not in text:
        sys.exit("prometheus text missing probdb_journal_appends_total")
    s.close()

    # Resilient CLI leg: --retry rides its idempotency key to an answer.
    out = subprocess.run(
        [probdbd, "client", "--socket", sock_path, "--retry",
         "--deadline-ms", "5000"],
        input=json.dumps({"op": "query", "id": "cli", "tenant": "chaos",
                          "name": "n0"}) + "\n",
        capture_output=True, text=True, check=True, timeout=60).stdout
    resp = json.loads(out.strip())
    if not resp.get("ok") or answer(resp["report"]) != answers["n0"]:
        sys.exit(f"client --retry leg diverged: {out!r}")

    p.send_signal(signal.SIGTERM)
    if p.wait() != 0:
        sys.exit("final chaos daemon unclean exit")
finally:
    if p.poll() is None:
        p.kill()
PY
echo "ok: 3x SIGKILL + restart replays every acked load exactly, --retry client answers"

echo "== bench compare gate =="
BENCH=_build/default/bench/main.exe
latest=$(ls BENCH_*.json | sort | tail -1)
previous=$(ls BENCH_*.json | sort | tail -2 | head -1)
# Self-comparison must pass clean...
"$BENCH" compare "$latest" "$latest" 25 E20 E21 E22 E23 E24 E25 E26 E27 E28 > /dev/null \
  || { echo "bench compare: self-comparison flagged regressions" >&2; exit 1; }
# ...and a copy with every ms multiplied ~10x must trip the gate (the
# perturbation keeps the one-line-per-id layout the parser expects).
sed -E 's/"ms": ([0-9]+)\./"ms": \1\1./g' "$latest" > "$TRACE_TMP/perturbed.json"
if "$BENCH" compare "$latest" "$TRACE_TMP/perturbed.json" 25 E20 E21 E22 E23 E24 E25 E26 E27 E28 > /dev/null; then
  echo "bench compare: failed to flag a 10x regression" >&2
  exit 1
fi
# Day-over-day gate on the guarded experiments (plan compilation wins,
# observability overhead, tracing overhead).
if [ "$previous" != "$latest" ]; then
  "$BENCH" compare "$previous" "$latest" 25 E20 E21 E22 E23 E24 E25 E26 E27 E28 \
    || { echo "bench compare: $previous -> $latest regressed" >&2; exit 1; }
fi
echo "ok: bench compare gates E20/E21/E22/E23/E24/E25/E26/E27/E28 (threshold 25%)"

echo "ci: all green"
