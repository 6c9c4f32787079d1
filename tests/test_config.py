import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_arelab.config import (
    SystemConfig,
    dump_config,
    load_config,
    parse_config_text,
    worker_count,
)
from mc_arelab.errors import ConfigError
from mc_arelab.gridgeom import GridKind, cell_area

NUMERIC_FIELDS = [f for f in dataclasses.fields(SystemConfig) if f.type != "str"]
DRAW_KINDS = ("valid", "zero", "negative", "nan", "inf", "-inf", "float-for-int", "bool")


def _draw_value(kind: str, field):
    default = getattr(SystemConfig(), field.name)
    base = 1 if default is None else default
    return {
        "zero": 0 if field.type.startswith("int") else 0.0,
        "negative": -base,
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "float-for-int": float(base) + 0.5,
        "bool": True,
    }[kind]


class TestDefaults:
    def test_defaults_construct(self):
        cfg = SystemConfig()
        assert cfg.grid == "hex"
        assert cfg.c == 0.2
        assert cfg.seed == 1

    def test_pitch_hex_is_c(self):
        cfg = SystemConfig(grid="hex", c=0.3)
        assert cfg.pitch == 0.3

    def test_pitch_square_preserves_area(self):
        cfg = SystemConfig(grid="square", c=0.3)
        hex_area = cell_area(GridKind.HEXAGONAL, 0.3)
        assert cfg.cell_area == pytest.approx(hex_area, rel=1e-12)

    def test_receiver_radius_defaults_to_half_pitch(self):
        assert SystemConfig(c=0.4).s_rx_effective == pytest.approx(0.2)
        assert SystemConfig(s_rx=0.05).s_rx_effective == 0.05

    def test_interferer_count_defaults(self):
        assert SystemConfig(grid="hex").interferer_count == 36
        assert SystemConfig(grid="square").interferer_count == 24
        assert SystemConfig(n_interferers=6).interferer_count == 6

    def test_factories_agree_with_fields(self):
        cfg = SystemConfig(c=0.5, n_mol=50, c_noise=2.0)
        params = cfg.params()
        assert params.n_mol == 50
        assert params.c_noise == 2.0
        assert params.s_rx == pytest.approx(0.25)
        layout = cfg.layout()
        assert len(layout.sites) == cfg.interferer_count + 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,key",
        [
            ({"grid": "triangular"}, "grid"),
            ({"c": 0.0}, "c"),
            ({"c": -1.0}, "c"),
            ({"d": 0.0}, "d"),
            ({"v": -0.1}, "v"),
            ({"diff": 0.0}, "diff"),
            ({"s_rx": -0.1}, "s_rx"),
            ({"l_rx": 0.0}, "l_rx"),
            ({"n_mol": 0}, "n_mol"),
            ({"c_noise": -1.0}, "c_noise"),
            ({"n_interferers": -1}, "n_interferers"),
            ({"k_max": -1}, "k_max"),
            ({"gamma_form": "upper"}, "gamma_form"),
            ({"threshold_mode": "fancy"}, "threshold_mode"),
            ({"mc_samples": True}, "mc_samples"),
            ({"horizon": 0.0}, "horizon"),
            ({"pbs_dt": math.inf}, "pbs_dt"),
            ({"mc_samples": 0}, "mc_samples"),
            ({"mc_theta_max": 0}, "mc_theta_max"),
            ({"mc_mode": "exact"}, "mc_mode"),
            ({"pbs_dt": 0.0}, "pbs_dt"),
            ({"pbs_t_sim": 0.0}, "pbs_t_sim"),
            ({"pbs_realizations": 0}, "pbs_realizations"),
            ({"pbs_particles": 0}, "pbs_particles"),
            ({"pbs_record_every": 0}, "pbs_record_every"),
            ({"seed": -1}, "seed"),
            ({"v": math.nan}, "v"),
            ({"c_noise": math.nan}, "c_noise"),
            ({"c": math.inf}, "c"),
            ({"s_rx": -math.inf}, "s_rx"),
            ({"horizon": True}, "horizon"),
            ({"n_mol": 2.5}, "n_mol"),
            ({"n_mol": 100.0}, "n_mol"),
            ({"n_mol": True}, "n_mol"),
            ({"seed": 1.5}, "seed"),
            ({"k_max": 2.5}, "k_max"),
            ({"n_interferers": 6.0}, "n_interferers"),
            ({"c": None}, "c"),
        ],
    )
    def test_bad_values_name_the_key(self, kwargs, key):
        with pytest.raises(ConfigError) as err:
            SystemConfig(**kwargs)
        assert err.value.key == key

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_construction_is_valid_or_names_a_field(self, data):
        drawn = {}
        for field in NUMERIC_FIELDS:
            kind = data.draw(st.sampled_from(DRAW_KINDS), label=field.name)
            if kind != "valid":
                drawn[field.name] = _draw_value(kind, field)
        try:
            cfg = SystemConfig(**drawn)
        except ConfigError as err:
            assert err.key in drawn
            return
        for field in NUMERIC_FIELDS:
            value = getattr(cfg, field.name)
            if value is None:
                continue
            assert not isinstance(value, bool) and math.isfinite(value)
            if field.type.startswith("int"):
                assert isinstance(value, int)

    def test_receiver_step_must_fit_horizon(self):
        with pytest.raises(ConfigError):
            SystemConfig(pbs_dt=20.0, pbs_t_sim=15.0)


class TestTextFormat:
    def test_round_trip_defaults(self):
        cfg = SystemConfig()
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_round_trip_non_defaults(self):
        cfg = SystemConfig(
            grid="square",
            c=0.35,
            s_rx=0.0625,
            n_mol=250,
            c_noise=1.5,
            n_interferers=8,
            gamma_form="regularized",
            threshold_mode="suboptimal",
            mc_mode="semi-analytic",
            pbs_dt=5e-4,
            seed=99,
        )
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_none_serializes_and_parses(self):
        text = dump_config(SystemConfig())
        assert "s_rx = none" in text
        assert parse_config_text(text).s_rx is None

    def test_float_precision_survives(self):
        cfg = SystemConfig(c=0.1 + 0.2)
        assert parse_config_text(dump_config(cfg)).c == cfg.c

    def test_partial_text_overrides_base(self):
        base = SystemConfig(n_mol=50)
        cfg = parse_config_text("c = 0.4\n", base=base)
        assert cfg.c == 0.4
        assert cfg.n_mol == 50

    def test_explicit_section_header_accepted(self):
        cfg = parse_config_text("[config]\nc = 0.4\n")
        assert cfg.c == 0.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("velocity = 0.2\n")
        assert err.value.key == "velocity"

    @pytest.mark.parametrize("key", ["theta_cap", "atom_cap"])
    def test_removed_cap_keys_rejected(self, key):
        # a CSV header written before the threshold searches were bounded
        # by the physics still lists these caps
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{key} = 0\n")
        assert err.value.key == key

    def test_bad_literal_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("n_mol = many\n")
        assert err.value.key == "n_mol"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid = square\nnmol_typo_guard = 1\n".replace("nmol_typo_guard = 1\n", ""))
        assert load_config(path).grid == "square"

    def test_fields_round_trip_is_exhaustive(self):
        # every field appears in the dump, so nothing silently drops
        text = dump_config(SystemConfig())
        for field in dataclasses.fields(SystemConfig):
            assert f"{field.name} = " in text


class TestWorkerCount:
    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv("MC_ARELAB_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv("MC_ARELAB_THREADS", "4")
        assert worker_count() == 4

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MC_ARELAB_THREADS", "zero")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.setenv("MC_ARELAB_THREADS", "0")
        with pytest.raises(ConfigError):
            worker_count()
