from quadcurl import checks


def test_battery_all_pass_under_budget(battery):
    results, elapsed = battery
    for r in results:
        assert r.passed, r.line()
    assert elapsed < 60.0
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_fault_injection_trips_curl_inclusion(monkeypatch, perturbed_vk):
    spaces = dict(checks.reference_spaces(), VK=perturbed_vk)
    monkeypatch.setattr(checks, "reference_spaces", lambda: spaces)
    assert not checks.check_curl_inclusions().passed
    # the perturbation must not silently break unrelated checks
    assert checks.check_unisolvence().passed


def test_check_lines_format():
    r = checks.check_unisolvence()
    line = r.line()
    assert line.startswith("[PASS]") or line.startswith("[FAIL]")
    assert r.name in line
