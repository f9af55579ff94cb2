"""The public surface: what ``from dmdc import *`` promises."""
import dmdc

REMOVED = ("transfer_singular_values", "normalized_modes", "DmdModel")


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
        assert not hasattr(dmdc.rom, name) and not hasattr(dmdc.dmd, name)


def test_removed_members_are_gone():
    # DmdcModel.output_rank is the one name for r; io reads actuation specs
    assert not hasattr(dmdc.DmdcModel, "rank")
    for name in ("to_dict", "from_dict"):
        assert not hasattr(dmdc.ActuationSpec, name)
