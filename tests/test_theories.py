from importlib.resources import files

from cplogic import theories


def test_every_packaged_file_is_bundled():
    shipped = {p.name.removesuffix(".cpl")
               for p in files(theories.__name__).iterdir()
               if p.name.endswith(".cpl")}
    assert set(theories.BUNDLED) == shipped
