"""The committed datasets must be exactly what the generator script produces.

If this fails, either the generator changed without regenerating the data
or the data was edited by hand; regenerate with
``python3 scripts/make_fixture.py`` and commit the result.
"""

from conftest import ROOT, load_generator

make_fixture = load_generator()


def _compare_tree(generated, committed):
    gen_files = sorted(p.name for p in generated.iterdir())
    com_files = sorted(p.name for p in committed.iterdir())
    assert gen_files == com_files
    for name in gen_files:
        assert (generated / name).read_bytes() == (committed / name).read_bytes(), name


def test_committed_datasets_match_generator(tmp_path):
    make_fixture.make_toy(tmp_path)
    make_fixture.make_synthetic_2013(tmp_path)
    _compare_tree(tmp_path / "data" / "toy", ROOT / "data" / "toy")
    _compare_tree(tmp_path / "data" / "synthetic_2013", ROOT / "data" / "synthetic_2013")
