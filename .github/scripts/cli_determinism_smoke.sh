#!/usr/bin/env bash
# Runs the installed `stdnet` console script end to end on the two-box chair
# and checks that repeating `deform` and `eval` writes the same bytes.
# Usage: .github/scripts/cli_determinism_smoke.sh [WORKDIR]
set -euo pipefail
work=${1:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"
stdnet fixtures two-box-chair --out fixtures --quiet
echo '{"iterations": 2, "eval_every": 1}' > config.json
stdnet train fixtures --out run --config config.json --quiet
box=$(ls fixtures/*.box.json | head -n 1)
for n in 1 2; do
    stdnet deform run/checkpoint.stdn "$box" --subdivisions 1 --out "deform$n" --quiet
    stdnet eval run/checkpoint.stdn fixtures --out "eval$n" --quiet
done
test "$(ls deform1/*.obj | wc -l)" -eq 3
for obj in deform1/*.obj; do
    cmp "$obj" "deform2/${obj#deform1/}"
done
cmp eval1/metrics.jsonl eval2/metrics.jsonl
echo "deform and eval outputs identical across two runs in $work"
