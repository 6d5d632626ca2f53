"""Bundled example theories used by the test suite, the demos, and the docs.

Each theory is the file ``<name>.cpl`` in this package; ``BUNDLED`` pairs it
with a few representative exogenous worlds to run it under.
"""

from __future__ import annotations

from importlib.resources import files

from ..syntax import Theory, parse_literal, parse_theory, record


@record
class BundledTheory:
    name: str
    cases: tuple  # per representative world, its true exogenous atoms: "A P(c)"

    @property
    def source(self) -> str:
        path = files(__name__).joinpath(f"{self.name}.cpl")
        return path.read_text(encoding="utf-8")

    def theory(self) -> Theory:
        return parse_theory(self.source)

    @property
    def exo_cases(self) -> tuple:
        """The representative exogenous worlds, as frozensets of atoms."""
        t = self.theory()
        return tuple(
            frozenset(parse_literal(spec, t).atom for spec in case.split())
            for case in self.cases)


BUNDLED = {
    b.name: b for b in (
        BundledTheory("suzy_billy", ("",)),
        BundledTheory("gears", ("", "Crank1", "Crank1 Crank3")),
        BundledTheory("locked_gears", ("", "Crank1", "Crank1 Locked(g1)",
                                       "Crank1 Crank2 Locked(g1)")),
        BundledTheory("blood_pressure", ("", "BadLifeStyle", "Genetics",
                                         "BadLifeStyle Genetics")),
        BundledTheory("superhero", ("", "Shoot(s)", "Shoot(s) Superhero(s)")),
        BundledTheory("penguins", ("Bird(tweety)", "Bird(tweety) Penguin(tweety)",
                                   "Bird(tweety) Bird(pingu) Penguin(pingu)")),
        BundledTheory("probabilistic_birds", (
            "Bird(tweety)", "Bird(tweety) Penguin(tweety)",
            "Bird(tweety) Bird(pingu) Penguin(pingu)")),
        BundledTheory("repeat_class", ("", "Required", "Smart Required")),
        BundledTheory("negation_loop", ("",)),
    )
}


def get(name: str) -> Theory:
    return BUNDLED[name].theory()

