"""The package root exports exactly the names the README documents."""
import re
from pathlib import Path

import repca

PUBLIC = {
    "CsvParseError", "DataMatrix", "DimensionMismatch", "EvalReport", "FitResult",
    "InvalidSpec", "NormSpec", "Projection", "RankDeficient", "SolverConfig",
    "SpectrumGapWarning", "SynthSpec", "center_columns", "evaluate", "fit",
    "objective_value", "principal_angles", "synth_subspace", "vanilla_pca", "__version__",
}


def test_root_exports_exactly_the_documented_names():
    assert sorted(repca.__all__) == sorted(PUBLIC)
    assert all(hasattr(repca, name) for name in repca.__all__)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    undocumented = [name for name in sorted(PUBLIC - {"__version__"})
                    if not re.search(rf"`{name}\b", readme)]
    assert undocumented == []
