"""SubmissionSpec validation and server-side builders."""

from __future__ import annotations

import pytest

from repro.service.spec import SpecError, SubmissionSpec


def spec_dict(**over):
    base = {"app": "matmul", "app_args": {"n_tiles": 2, "variant": "hyb"}}
    base.update(over)
    return base


def test_round_trip():
    spec = SubmissionSpec.from_dict(spec_dict(seed=7))
    assert SubmissionSpec.from_dict(spec.to_dict()) == spec


def test_unknown_app_rejected():
    with pytest.raises(SpecError, match="unknown app"):
        SubmissionSpec.from_dict(spec_dict(app="fft"))


def test_unknown_machine_rejected():
    with pytest.raises(SpecError, match="unknown machine"):
        SubmissionSpec.from_dict(spec_dict(machine="bluegene"))


def test_unknown_field_rejected():
    with pytest.raises(SpecError, match="unknown spec field"):
        SubmissionSpec.from_dict(spec_dict(priority=3))


def test_missing_app_rejected():
    with pytest.raises(SpecError, match="missing the 'app'"):
        SubmissionSpec.from_dict({"seed": 1})


def test_machine_seed_must_be_top_level():
    with pytest.raises(SpecError, match="must not carry 'seed'"):
        SubmissionSpec.from_dict(spec_dict(machine_args={"n_smp": 2, "seed": 3}))


def test_real_apps_not_serviceable():
    with pytest.raises(SpecError, match="real-arithmetic"):
        SubmissionSpec.from_dict(
            spec_dict(app_args={"n_tiles": 2, "variant": "hyb", "real": True})
        )


def test_unknown_config_field_rejected():
    for field in ("turbo", "max_events"):
        with pytest.raises(SpecError, match="unknown config field"):
            SubmissionSpec.from_dict(spec_dict(config={field: True}))


def test_build_app_and_machine():
    spec = SubmissionSpec.from_dict(
        spec_dict(machine_args={"n_smp": 2, "n_gpus": 1}, seed=5)
    )
    app = spec.build_app()
    assert app.name == "matmul" and app.n_tiles == 2
    machine = spec.build_machine()
    assert len(machine.devices_of_kind("smp")) == 2
    assert len(machine.devices_of_kind("cuda")) == 1
    assert machine.provenance is not None and machine.provenance["seed"] == 5


def test_bad_app_args_raise_spec_error():
    spec = SubmissionSpec.from_dict(spec_dict(app_args={"n_tiles": -1}))
    with pytest.raises(SpecError, match="bad app_args"):
        spec.build_app()


def test_scheduler_key_covers_options_and_sharing():
    a = SubmissionSpec.from_dict(spec_dict())
    b = SubmissionSpec.from_dict(spec_dict(share_scheduler=False))
    c = SubmissionSpec.from_dict(spec_dict(scheduler_options={"window": 4}))
    keys = {a.scheduler_key(), b.scheduler_key(), c.scheduler_key()}
    assert len(keys) == 3


def test_config_key_is_canonical():
    # None and {} both build a default RuntimeConfig — same experiment,
    # same key; any real override gets its own key
    none_cfg = SubmissionSpec.from_dict(spec_dict())
    empty_cfg = SubmissionSpec.from_dict(spec_dict(config={}))
    ablated = SubmissionSpec.from_dict(spec_dict(config={"prefetch": False}))
    assert none_cfg.config_key() == empty_cfg.config_key() == "{}"
    assert ablated.config_key() != none_cfg.config_key()


def test_build_config():
    spec = SubmissionSpec.from_dict(spec_dict(config={"prefetch": False}))
    config = spec.build_config()
    assert config is not None and config.prefetch is False
    assert SubmissionSpec.from_dict(spec_dict()).build_config() is None


def test_alias_policy_is_the_wire_aliasing_field():
    spec = SubmissionSpec.from_dict(spec_dict(config={"alias_policy": "report"}))
    assert spec.build_config().alias_policy == "report"
    with pytest.raises(SpecError, match="unknown config field"):
        SubmissionSpec.from_dict(spec_dict(config={"check_aliasing": True}))
    bad = SubmissionSpec.from_dict(spec_dict(config={"alias_policy": "maybe"}))
    with pytest.raises(SpecError, match="alias_policy"):
        bad.build_config()
