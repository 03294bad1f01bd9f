"""The shared JSON reader behind every document loader."""

import pytest

from dfrlab.controllers import load_policy
from dfrlab.envs import load_env_spec
from dfrlab.errors import InvalidInputError
from dfrlab.harness import load_experiment_config
from dfrlab.kernel_ocsvm import load_model
from dfrlab.support import load_support

# what each loader calls its document in the error, and the loader
LOADERS = {
    "estimator file": load_model,
    "policy file": load_policy,
    "bundle manifest": load_support,
    "environment spec": load_env_spec,
    "experiment config": load_experiment_config,
}


@pytest.mark.parametrize("what", sorted(LOADERS))
def test_missing_file(tmp_path, what):
    with pytest.raises(InvalidInputError, match=f"cannot read {what}"):
        LOADERS[what](str(tmp_path / "missing"))


@pytest.mark.parametrize("text", ["not json {", "[1, 2]"], ids=["non-json", "non-object"])
@pytest.mark.parametrize("what", sorted(LOADERS))
def test_unreadable_document(tmp_path, what, text):
    # load_support takes the bundle directory and reads its manifest.json
    doc = tmp_path / ("manifest.json" if what == "bundle manifest" else "doc.json")
    doc.write_text(text)
    target = tmp_path if what == "bundle manifest" else doc
    with pytest.raises(InvalidInputError, match=f"cannot read {what}"):
        LOADERS[what](str(target))
