#!/usr/bin/env bash
# Replay one failing simulation seed with its full fault trace.
#
#   scripts/replay.sh base 1442               # replay base seed 1442
#   scripts/replay.sh base 1442 --broken      # ...against the redispatch-off build
#   scripts/replay.sh shard 3 --shard-clients 100 --shard-workers 10
#
# Every sweep (`simtest --scenario <name> --seeds N`, run by
# scripts/ci.sh) prints a `replay: scripts/replay.sh <scenario> <seed>`
# line for each failing seed. The whole scenario — fault plan,
# crash/partition timeline, work identity — is derived from that one
# integer, so this reproduces the exact failure: same frames dropped,
# same virtual timestamps, same verdict. Extra arguments pass through
# to simtest.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: scripts/replay.sh <base|mixed|store|online|shard> <seed> [simtest flags...]" >&2
  exit 2
fi
SCENARIO=$1
SEED=$2
shift 2

cargo build --release --offline -p inlinetune-sim --bin simtest >/dev/null
exec target/release/simtest --scenario "$SCENARIO" --seed "$SEED" --trace "$@"
