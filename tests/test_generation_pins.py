"""The simulator's generation is pinned to ``CACHE_VERSION``.

``tests/generation_pins.json`` holds sha256 digests of every registered
workload's materialized traces (small budget, two seeds) and of
``SimResult.to_dict()`` for a quick point of every registered
architecture under both engines (plus, in a ``custom`` section, two
ablation variants run as a registry name plus a config), recorded by
``tools/pin_generation.py --record``. A change that alters any of them
must bump ``CACHE_VERSION`` (so stale run-cache entries stop answering)
and re-record; otherwise it is a bug.
"""

import importlib.util
import json
import os

import pytest

from repro.architectures.registry import architecture_names
from repro.harness.runcache import CACHE_VERSION

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "pin_generation", os.path.join(ROOT, "tools", "pin_generation.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pin_generation = _load_tool()


def test_generation_matches_pins():
    problems = pin_generation.check()
    assert not problems, "\n".join(problems)


def test_every_architecture_is_pinned():
    # A new family cannot ship without a result pin: the recorded
    # points cover exactly the registered architectures.
    pinned = {name.split("/")[0]
              for name in pin_generation.load_pins()["results"]}
    assert pinned == set(architecture_names())


def test_changed_digest_names_the_fix(tmp_path, monkeypatch):
    monkeypatch.setattr(pin_generation, "current_pins",
                        pin_generation.load_pins)
    pins = pin_generation.load_pins()
    name = sorted(pins["traces"])[0]
    pins["traces"][name] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    problems = pin_generation.check(str(path))
    assert len(problems) == 2
    assert "bump CACHE_VERSION" in problems[0]
    assert "tools/pin_generation.py --record" in problems[0]
    assert problems[1].startswith(f"traces {name}: recorded {'0' * 64}")


@pytest.mark.parametrize("version", [CACHE_VERSION - 1, CACHE_VERSION + 1])
def test_pins_from_another_version_ask_for_a_record(tmp_path, version):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"cache_version": version, "traces": {},
                                "results": {}}))
    (problem,) = pin_generation.check(str(path))
    assert f"recorded at CACHE_VERSION {version}" in problem
    assert "--record" in problem
