#!/usr/bin/env bash
# node-stop ctest gate: a cluster whose slot budget ends while client ops
# are still queued must answer every op. Each node proposes only 4 of the
# 16 slots, so at most 16 of the 48 ops can run; the other 32 must come
# back refused (ack status 2, node/client.hpp), none unanswered.
#
#   node_stop_refusal.sh <repo_root> <build_dir> <scratch_dir>
set -u

root=${1:?usage: node_stop_refusal.sh <repo_root> <build_dir> <scratch_dir>}
build=${2:?missing build dir}
scratch=${3:?missing scratch dir}

rm -rf "$scratch"
"$root/tools/run_cluster.sh" -b "$build" -s 16 -o 48 -r 200 -d "$scratch"
rc=$?

line=$(grep -h "^loadgen: sent=" "$scratch/loadgen.log")
field() { sed -n "s/.* $1=\([0-9]*\).*/\1/p" <<< "$line"; }
sent=$(field sent)
acked=$(field acked)
refused=$(field refused)
unacked=$(field unacked)

fail=0
if ((rc != 0)); then
  echo "FAIL: run_cluster.sh exited $rc" >&2
  fail=1
fi
if [[ -z $sent || -z $acked || -z $refused || -z $unacked ]]; then
  echo "FAIL: no loadgen summary line" >&2
  exit 1
fi
if ((unacked != 0)); then
  echo "FAIL: $unacked ops left unanswered" >&2
  fail=1
fi
if ((acked + refused != sent || sent != 48)); then
  echo "FAIL: acked=$acked + refused=$refused != sent=$sent (want 48)" >&2
  fail=1
fi
exit $fail
