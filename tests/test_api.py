"""The public surface: what ``from dmdc import *`` promises."""
import inspect

import dmdc

REMOVED = (
    "transfer_singular_values", "normalized_modes", "DmdModel", "stack_omega",
    "exact_modes",
)


def test_all_names_resolve_once():
    names = dmdc.__all__
    assert len(names) == len(set(names)), "a name is listed twice in __all__"
    assert [n for n in names if not hasattr(dmdc, n)] == []
    namespace = {}
    exec("from dmdc import *", namespace)
    assert set(names) <= namespace.keys()


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in dmdc.__all__
        assert not hasattr(dmdc, name)
        for module in (dmdc.rom, dmdc.dmd, dmdc.dmdc):
            assert not hasattr(module, name)


def test_removed_members_are_gone():
    # DmdcModel.output_rank is the one name for r; io reads actuation specs
    assert not hasattr(dmdc.DmdcModel, "rank")
    for name in ("to_dict", "from_dict"):
        assert not hasattr(dmdc.ActuationSpec, name)
    # no name or knob that only the tests used: the cap is a constant, and
    # the modal span takes the one default SVD threshold
    assert not hasattr(dmdc.TruncatedSvd, "reconstruct")
    assert "max_dim" not in inspect.signature(dmdc.DmdcModel.full_operator).parameters
    assert not hasattr(dmdc.rom, "MODAL_SPAN_THRESHOLD")
    # one certified rank count, at the one threshold the certificate decides,
    # and no corrected targets beside the known-B gain
    assert list(inspect.signature(dmdc.TruncatedSvd.numerical_rank).parameters) == ["self"]
    assert not hasattr(dmdc.dmdc, "_input_corrected")
