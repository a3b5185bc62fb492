"""The package's export list matches its public attributes."""

import types

import ttomo


def test_export_list_names_exactly_the_public_attributes():
    assert len(set(ttomo.__all__)) == len(ttomo.__all__)
    assert [name for name in ttomo.__all__ if not hasattr(ttomo, name)] == []
    public = {
        name
        for name, value in vars(ttomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(ttomo.__all__)) == []


def test_fitting_submodule_and_fit_function_are_distinct():
    import ttomo.fitting as fitting

    assert isinstance(fitting, types.ModuleType)
    assert fitting.fit is ttomo.fit
    assert callable(ttomo.fit) and not isinstance(ttomo.fit, types.ModuleType)
