#!/usr/bin/env bash
# node-smoke ctest gate: a real 4-process mewc_node cluster on localhost,
# driven by mewc_loadgen, must (a) complete every slot on every node,
# (b) ack every client op, and (c) converge to ONE kv digest and ONE
# ledger digest across all four nodes. The latency JSON the loadgen writes
# is the CI artifact (NODE_latency.json).
#
#   node_smoke.sh <mewc_node> <mewc_loadgen> <scratch_dir>
set -u

node_bin=${1:?usage: node_smoke.sh <mewc_node> <mewc_loadgen> <scratch_dir>}
loadgen_bin=${2:?missing mewc_loadgen path}
scratch=${3:?missing scratch dir}

rm -rf "$scratch"
mkdir -p "$scratch"

n=4
slots=64
ops=48
# Randomize the port window so parallel ctest invocations (and leftover
# TIME_WAIT sockets from a previous run) do not collide.
base_port=$((20000 + RANDOM % 20000))

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null
  done
}
trap cleanup EXIT

for ((i = 0; i < n; ++i)); do
  "$node_bin" --id "$i" --n "$n" --t 1 --base-port "$base_port" \
    --slots "$slots" --checkpoint-every 8 --seed 0xabc \
    > "$scratch/node$i.log" 2>&1 &
  pids+=($!)
done

targets=""
for ((i = 0; i < n; ++i)); do
  targets+="${targets:+,}127.0.0.1:$((base_port + n + i))"
done

"$loadgen_bin" --targets "$targets" --ops "$ops" --rate 200 \
  --drain-ms 60000 --json "$scratch/NODE_latency.json" \
  > "$scratch/loadgen.log" 2>&1
loadgen_rc=$?

node_rc=0
for pid in "${pids[@]}"; do
  wait "$pid" || node_rc=1
done
pids=()

echo "--- loadgen ---"
cat "$scratch/loadgen.log"
echo "--- nodes ---"
grep -h "slots=\|client ops\|timeouts\|digest" "$scratch"/node*.log

fail=0
if ((node_rc != 0)); then
  echo "FAIL: a node exited non-zero" >&2
  fail=1
fi
if ((loadgen_rc != 0)); then
  echo "FAIL: loadgen exited $loadgen_rc (unanswered ops?)" >&2
  fail=1
fi
# The loadgen exits 0 when every op is answered, refusals included; with
# 64 slots for 48 ops every op has a slot, so every op must be acked.
summary=$(grep -h "^loadgen: sent=" "$scratch/loadgen.log")
if [[ $summary != *" acked=$ops "* || $summary != *" refused=0 "* ||
      $summary != *" unacked=0 "* ]]; then
  echo "FAIL: not every op acked: $summary" >&2
  fail=1
fi

# Every node ran every slot.
if [[ $(grep -hc "slots=$slots " "$scratch"/node*.log | sort -u) != "1" ]]; then
  echo "FAIL: not every node completed $slots slots" >&2
  fail=1
fi

# The agreement audit: exactly one distinct kv digest and one distinct
# ledger digest across the cluster.
kv=$(grep -h "kv digest:" "$scratch"/node*.log | awk '{print $NF}' | sort -u)
ledger=$(grep -h "ledger digest:" "$scratch"/node*.log | awk '{print $NF}' | sort -u)
if [[ $(grep -h "kv digest:" "$scratch"/node*.log | wc -l) -ne $n ]]; then
  echo "FAIL: expected $n kv digest lines" >&2
  fail=1
fi
if [[ $(wc -l <<< "$kv") -ne 1 || -z $kv ]]; then
  echo "FAIL: kv digests diverged: $kv" >&2
  fail=1
fi
if [[ $(wc -l <<< "$ledger") -ne 1 || -z $ledger ]]; then
  echo "FAIL: ledger digests diverged: $ledger" >&2
  fail=1
fi

if ((fail == 0)); then
  echo "node smoke converged: kv $kv ledger $ledger"
fi
exit $fail
