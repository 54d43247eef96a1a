from mtchan import stable, validate


def _alpha_half(results):
    return [r for r in results if "alpha=1/2 closed form" in r.name]


def test_closed_form_oracle_covers_alpha_half():
    results = _alpha_half(validate.check_levy_closed_vs_numeric(tol=1e-8))
    assert len(results) == 6
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_closed_form_oracle_flags_a_wrong_density(monkeypatch):
    monkeypatch.setattr(validate, "std_pdf",
                        lambda s, x: 1.001 * stable.std_pdf(s, x))
    for r in _alpha_half(validate.check_levy_closed_vs_numeric(tol=1e-8)):
        assert r.passed == r.name.startswith("cdf"), r.name
