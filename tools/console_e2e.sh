#!/usr/bin/env bash
# Run the installed `repca` console script end to end: synth, fit and rerun
# on three data shapes, and check that each rerun writes the same basis and
# the same manifest byte for byte, and that every basis written follows the
# sign convention.
#
# usage: tools/console_e2e.sh [workdir]
#
# The commands run in workdir (default: a fresh temporary directory), and
# every output goes there; keep it outside the checkout, so that only the
# installed package is importable.  Exits nonzero at the first failing
# command.
set -euo pipefail

work=${1:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"

# fit, then rerun its manifest; the two bases and the two manifests must
# match byte for byte
fit_and_rerun() {
  local name=$1
  shift
  repca fit "$@" --out "$name"
  repca rerun --manifest "$name/manifest.json" --out "$name-again"
  cmp "$name/w.csv" "$name-again/w.csv"
  cmp "$name/manifest.json" "$name-again/manifest.json"
}

repca --version
repca synth --m 5 --n 60 --k-true 2 --noise 0.05 --outlier-frac 0.1 --seed 1 --out toy
fit_and_rerun fit --input toy/data.csv --k 2
# pgd and momentum on m >> n data (m = 300 features, n = 40 samples).
repca synth --m 300 --n 40 --k-true 3 --noise 0.05 --outlier-frac 0.1 --seed 2 --out wide
fit_and_rerun wide-fit --input wide/data.csv --k 3 --solver pgd
fit_and_rerun wide-momentum --input wide/data.csv --k 3 --solver momentum
# pgd, irls and momentum on data whose residual spans several column blocks (n = 6000 samples).
repca synth --m 50 --n 6000 --k-true 3 --noise 0.05 --outlier-frac 0.1 --seed 3 --out long
fit_and_rerun long-pgd --input long/data.csv --k 3 --solver pgd
fit_and_rerun long-irls --input long/data.csv --k 3 --solver irls
fit_and_rerun long-momentum --input long/data.csv --k 3 --solver momentum
# l2p, whose residual norms are downdated, on the multi-block long data (pgd) and the wide data (irls).
fit_and_rerun long-l2p --input long/data.csv --k 3 --norm l2p --p 0.5 --solver pgd
fit_and_rerun wide-l2p --input wide/data.csv --k 3 --norm l2p --p 0.5 --solver irls
# These must converge: wide-fit and wide-l2p on m >> n data, where
# pgd's Rayleigh-Ritz step keeps wide-fit from crawling and irls's guard,
# which takes that step when the eigen step would rise, keeps wide-l2p from
# running all 500 rounds; and long-pgd and long-momentum, the l1 fits on
# multi-block data, whose M V each residual block adds to in turn.
for name in wide-fit wide-l2p long-pgd long-momentum; do
  python -c "import json, sys; sys.exit(0 if json.load(open('$name/trace.json'))['converged'] else '$name did not converge')"
done
# wide-l2p's guard must trip, so the fit and its rerun above cover the guarded step.
python -c "import json, sys; sys.exit(0 if json.load(open('wide-l2p/trace.json'))['guarded_steps'] >= 1 else 'wide-l2p took no guarded step')"
# Every basis written, whichever step made it, follows the sign convention:
# the first entry of each column above _SIGN_TOL in magnitude is nonnegative.
python - */w.csv <<'EOF'
import sys
import numpy as np
from repca.linalg import _SIGN_TOL
for path in sys.argv[1:]:
    w = np.loadtxt(path, delimiter=",", ndmin=2)
    big = np.abs(w) > _SIGN_TOL
    if (w[big.argmax(axis=0), np.arange(w.shape[1])][big.any(axis=0)] < 0).any():
        sys.exit(f"{path} breaks the sign convention")
print(f"sign convention: {len(sys.argv) - 1} bases")
EOF
echo "console script end to end: ok ($work)"
