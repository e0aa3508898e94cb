"""Portfolio racing edge cases: total failure, cancellation, attribution."""

import os
import time

import pytest

from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import VerificationOutcome
from repro.grid.cases import ieee14
from repro.runtime import RuntimeOptions, race_backends, race_configs, verify_many
from repro.runtime import portfolio
from repro.runtime.executor import _M_PORTFOLIO_RACES, _M_PORTFOLIO_WINS
from repro.smt.sat import SolverConfig, diversified_configs


def sat_spec():
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(9))


class _UnprintableError(RuntimeError):
    """A crash whose ``str()`` raises and which cannot be pickled."""

    def __str__(self) -> str:
        raise TypeError("this exception cannot be formatted")

    def __reduce__(self):
        raise TypeError("this exception cannot be pickled")


@pytest.fixture
def race_faults(monkeypatch):
    """Make chosen race contenders stall or crash inside their child.

    Call the returned function with ``stall=`` / ``crash=`` collections
    of contender names: a backend name for backend races, a solver
    config token for config races.  A stalled contender sleeps until it
    is cancelled; a crashed one raises :class:`_UnprintableError`, the
    worst-case crash shape the structured-error path must survive.  The
    patch lands on each child's solve entry — ``verify_attack`` for
    backend races, ``UfdiEncoder`` for config races — and race children
    are forked, so they inherit it.
    """
    real_verify = portfolio.verify_attack
    real_encoder = portfolio.UfdiEncoder

    def install(stall=(), crash=()):
        def misbehave(name):
            if name in stall:
                time.sleep(120.0)
            if name in crash:
                raise _UnprintableError("portfolio crash fault")

        def verify_attack(spec, backend="smt", **kwargs):
            misbehave(backend)
            return real_verify(spec, backend=backend, **kwargs)

        def encoder(spec, **kwargs):
            # a config child pins its token here before encoding
            misbehave(os.environ.get("REPRO_SAT_CONFIG"))
            return real_encoder(spec, **kwargs)

        monkeypatch.setattr(portfolio, "verify_attack", verify_attack)
        monkeypatch.setattr(portfolio, "UfdiEncoder", encoder)

    return install


class TestTotalFailure:
    def test_every_contender_crashing_is_inconclusive_not_fatal(self):
        result = race_backends(sat_spec(), backends=("bogus_a", "bogus_b"))
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.backend == "portfolio"
        assert result.statistics["portfolio_inconclusive"] == 1
        assert result.attack is None

    def test_one_crashing_contender_does_not_spoil_the_race(self):
        result = race_backends(sat_spec(), backends=("bogus_a", "smt"))
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner"] == "smt"


class TestLoserCancellation:
    def test_stalled_loser_is_terminated_and_counted(self, race_faults):
        # the fault parks the MILP child, so SMT must win and the parked
        # contender must be observed getting cancelled
        race_faults(stall={"milp"})
        result = race_backends(sat_spec(), backends=("smt", "milp"))
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner"] == "smt"
        assert result.statistics["portfolio_losers_cancelled"] >= 1

    def test_winner_attribution_survives_role_swap(self, race_faults):
        race_faults(stall={"smt"})
        result = race_backends(sat_spec(), backends=("smt", "milp"))
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner"] == "milp"


class TestCrashReporting:
    def test_unprintable_exception_still_yields_structured_error(
        self, race_faults
    ):
        # _UnprintableError's __str__ and __reduce__ both raise; the
        # child must still deliver a plain-string report to the parent
        race_faults(crash={"smt"})
        result = race_backends(sat_spec(), backends=("smt", "milp"))
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner"] == "milp"

    def test_all_contenders_crashing_reports_each_error(self, race_faults):
        race_faults(crash={"smt"})
        result = race_backends(sat_spec(), backends=("smt", "bogus_b"))
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.statistics["portfolio_crashed"] == 2
        errors = result.statistics["portfolio_errors"]
        assert errors["smt"] == "_UnprintableError: <unprintable exception>"
        assert "bogus_b" in errors

    def test_config_race_crash_is_attributed_to_the_config(self, race_faults):
        tokens = [c.token() for c in diversified_configs(2)]
        race_faults(crash={tokens[0]})
        result = race_configs(sat_spec(), n=2)
        # the surviving contender still settles the instance
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner_config"] == tokens[1]
        errors = result.statistics.get("portfolio_errors", {})
        if errors:  # the crash may land after the winner already broke out
            assert errors[tokens[0]].startswith("_UnprintableError")

    def test_config_race_total_crash_is_inconclusive(self, race_faults):
        # one contender crashes unprintably, the other is parked; the
        # race must time out inconclusive with the crash attributed
        tokens = [c.token() for c in diversified_configs(2)]
        race_faults(crash={tokens[0]}, stall={tokens[1]})
        result = race_configs(sat_spec(), n=2, timeout=2.0)
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.statistics["portfolio_inconclusive"] == 1
        assert result.statistics["portfolio_crashed"] == 1
        assert result.statistics["portfolio_errors"][tokens[0]] == (
            "_UnprintableError: <unprintable exception>"
        )
        assert result.statistics["portfolio_losers_cancelled"] >= 1


class TestDeterministicTie:
    def test_simultaneous_finishers_attribute_a_single_winner(self):
        # both contenders solve the same easy instance near-instantly; the
        # parent must pick exactly one winner and label it consistently
        for _ in range(3):
            result = race_backends(sat_spec(), backends=("smt", "milp"))
            assert result.outcome is VerificationOutcome.ATTACK_EXISTS
            winner = result.statistics["portfolio_winner"]
            assert winner in ("smt", "milp")
            assert result.backend == winner

    def test_config_tie_winner_matches_replayable_config(self):
        capture = {}
        result = race_configs(sat_spec(), n=2, capture=capture)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert (
            result.statistics["portfolio_winner_config"]
            == capture["winner_config"]
        )
        tokens = {c.token() for c in diversified_configs(2)}
        assert capture["winner_config"] in tokens


class TestWinnerAttributionMetrics:
    def test_executor_counts_races_and_wins_by_backend(self, race_faults):
        race_faults(stall={"milp"})
        races_before = _M_PORTFOLIO_RACES.value()
        wins_before = _M_PORTFOLIO_WINS.value(backend="smt")
        results = verify_many(
            [sat_spec()], RuntimeOptions(jobs=1, portfolio=True, cache=None)
        )
        assert results[0].outcome is VerificationOutcome.ATTACK_EXISTS
        assert _M_PORTFOLIO_RACES.value() == races_before + 1
        assert _M_PORTFOLIO_WINS.value(backend="smt") == wins_before + 1

    def test_single_backend_race_still_attributes_winner(self):
        result = race_backends(sat_spec(), backends=("smt",))
        assert result.statistics["portfolio_winner"] == "smt"
