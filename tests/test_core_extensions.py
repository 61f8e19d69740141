"""Tests for the extension features: historical-fallback position feed
(paper Section IV-C5) and trained-model persistence."""

import numpy as np
import pytest

from repro.core.persistence import load_trained, save_trained
from repro.core.positions import HistoricalFallbackFeed
from repro.core.system import MobiRescueSystem
from repro.core.training import train_mobirescue
from repro.core.config import MobiRescueConfig
from repro.mobility.cleaning import clean_trace
from repro.mobility.mapmatch import MatchedTrajectories, map_match
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR


def synthetic_trajectories() -> MatchedTrajectories:
    """Two people with clear daily habits over days 0-4:

    * person 1: node 10 at night, node 20 during 8-17h for days 0-4; on
      day 5 they evacuate to node 99 and their phone dies at noon;
    * person 2: always node 30, with a single early fix.
    """
    ts1, nodes1 = [], []
    for day in range(5):
        for hour in range(24):
            ts1.append(day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR)
            nodes1.append(20 if 8 <= hour < 17 else 10)
    # Day 5: at an unusual node (evacuated); fixes stop at noon.
    for hour in range(12):
        ts1.append(5 * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR)
        nodes1.append(99)

    ts2 = [d * SECONDS_PER_DAY + h * SECONDS_PER_HOUR for d in range(8) for h in range(24)]
    nodes2 = [30] * len(ts2)
    # Collapse consecutive duplicates, as map_match would.
    n2_t, n2_n = [ts2[0]], [nodes2[0]]
    return MatchedTrajectories(
        trajectories={
            1: (np.array(ts1, dtype=float), np.array(nodes1)),
            2: (np.array(n2_t, dtype=float), np.array(n2_n)),
        },
        dropped_far_fixes=0,
    )


class TestHistoricalFallbackFeed:
    def make_feed(self, staleness_h=6.0):
        return HistoricalFallbackFeed(
            synthetic_trajectories(),
            history_start_s=0.0,
            history_end_s=5 * SECONDS_PER_DAY,
            staleness_s=staleness_h * SECONDS_PER_HOUR,
        )

    def test_fresh_fix_used_directly(self):
        feed = self.make_feed()
        pos = feed(5 * SECONDS_PER_DAY + 11.5 * SECONDS_PER_HOUR)
        # Last fix is half an hour old: the unusual evacuated position wins
        # over the node-20 habit.
        assert pos[1] == 99

    def test_stale_device_falls_back_to_habit(self):
        feed = self.make_feed()
        # Day 6 at 22:00: person 1's last fix is 35 h old; at 22:00 their
        # habit says node 10 (home at night), even though the last fix was
        # at node 20.
        pos = feed(6 * SECONDS_PER_DAY + 22 * SECONDS_PER_HOUR)
        assert pos[1] == 10
        assert feed.fallback_uses >= 1

    def test_stale_device_daytime_habit(self):
        feed = self.make_feed()
        pos = feed(6 * SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR)
        assert pos[1] == 20  # work hours

    def test_person_with_single_anchor(self):
        feed = self.make_feed()
        pos = feed(7 * SECONDS_PER_DAY + 3 * SECONDS_PER_HOUR)
        assert pos[2] == 30

    def test_habitual_node_neighbouring_hours(self):
        feed = self.make_feed()
        # Person 2's history (collapsed to a single entry at hour 0) still
        # resolves for any queried hour via the neighbouring-hour search.
        assert feed.habitual_node(2, 13.5 * SECONDS_PER_HOUR) == 30
        assert feed.habitual_node(999, 0.0) is None

    def test_caching(self):
        feed = self.make_feed()
        t = 6 * SECONDS_PER_DAY
        assert feed(t) is feed(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistoricalFallbackFeed(synthetic_trajectories(), 5.0, 5.0)
        with pytest.raises(ValueError):
            HistoricalFallbackFeed(synthetic_trajectories(), 0.0, 1.0, staleness_s=0.0)

    def test_on_real_trace(self, florence_small):
        """On the real dataset the fallback feed returns positions for the
        same population as the plain feed."""
        scenario, bundle = florence_small
        clean, _ = clean_trace(
            bundle.trace, scenario.partition.width_m, scenario.partition.height_m
        )
        matched = map_match(clean, scenario.network)
        feed = HistoricalFallbackFeed(
            matched,
            history_start_s=0.0,
            history_end_s=scenario.timeline.storm_start_s,
        )
        t = 22.5 * SECONDS_PER_DAY
        pos = feed(t)
        assert len(pos) == len(bundle.persons)
        valid_nodes = set(scenario.network.landmark_ids())
        assert set(pos.values()) <= valid_nodes


class TestGpsFallbackDeploy:
    def test_deploy_with_fallback_feed(self, michael_small, florence_small):
        scenario, bundle = michael_small
        trained = train_mobirescue(
            scenario, bundle, MobiRescueConfig(seed=7), episodes=1, num_teams=8
        )
        fscen, fbundle = florence_small
        dispatcher = MobiRescueSystem(trained).deploy(
            fscen, fbundle, gps_fallback=True
        )
        assert isinstance(dispatcher.positions_fn, HistoricalFallbackFeed)
        positions = dispatcher.positions_fn(22.5 * SECONDS_PER_DAY)
        assert len(positions) > 0


class TestPersistence:
    @pytest.fixture(scope="class")
    def trained(self, michael_small):
        scenario, bundle = michael_small
        return train_mobirescue(
            scenario, bundle, MobiRescueConfig(seed=3), episodes=1, num_teams=10
        )

    def test_roundtrip_preserves_models(self, trained, michael_small, tmp_path):
        scenario, _ = michael_small
        path = tmp_path / "mobirescue.npz"
        save_trained(trained, path)
        loaded = load_trained(path, scenario)

        # SVM decisions survive.
        rng = np.random.default_rng(0)
        x = rng.normal([60, 40, 200], [30, 15, 15], size=(50, 3))
        np.testing.assert_array_equal(
            trained.predictor.predict_labels(x), loaded.predictor.predict_labels(x)
        )
        # Q-network survives bit-exact.
        s = rng.normal(size=(4, trained.config.state_dim))
        np.testing.assert_allclose(
            trained.agent.q_net.forward(s), loaded.agent.q_net.forward(s)
        )
        assert loaded.config == trained.config
        assert loaded.episode_service_rates == trained.episode_service_rates
        assert loaded.agent.epsilon == trained.agent.epsilon

    def test_loaded_system_deploys(self, trained, michael_small, florence_small, tmp_path):
        scenario, _ = michael_small
        fscen, fbundle = florence_small
        path = tmp_path / "m.npz"
        save_trained(trained, path)
        loaded = load_trained(path, scenario)
        dispatcher = MobiRescueSystem(loaded).deploy(fscen, fbundle)
        assert dispatcher.predictor.is_fitted

    def test_unfitted_rejected(self, michael_small, trained, tmp_path):
        import copy

        broken = copy.copy(trained)
        from repro.core.predictor import RequestPredictor

        broken.predictor = RequestPredictor(michael_small[0])
        with pytest.raises(ValueError):
            save_trained(broken, tmp_path / "x.npz")

    def test_save_lands_at_exact_path(self, trained, tmp_path):
        # np.savez would have silently written to model.bin.npz.
        path = tmp_path / "model.bin"
        save_trained(trained, path)
        assert path.exists()
        assert not (tmp_path / "model.bin.npz").exists()

    def test_corrupt_archive_typed_error(self, trained, michael_small, tmp_path):
        from repro.core.artifacts import CorruptArtifactError

        scenario, _ = michael_small
        path = tmp_path / "m.npz"
        save_trained(trained, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError):
            load_trained(path, scenario)

        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(CorruptArtifactError):
            load_trained(path, scenario)

    def test_unknown_version_typed_error(self, trained, michael_small, tmp_path):
        from repro.core.artifacts import ArtifactVersionError, atomic_savez

        scenario, _ = michael_small
        path = tmp_path / "m.npz"
        save_trained(trained, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.array([99])
        atomic_savez(path, **arrays)
        with pytest.raises(ArtifactVersionError):
            load_trained(path, scenario)
        # ...which old callers still catch as ValueError.
        with pytest.raises(ValueError):
            load_trained(path, scenario)

    def test_v1_archive_migrates_to_v2(self, trained, michael_small, tmp_path):
        from repro.core.artifacts import atomic_savez

        scenario, _ = michael_small
        path = tmp_path / "m.npz"
        save_trained(trained, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        # Strip everything the v2 format added, as a v1 writer would have.
        arrays = {
            k: v
            for k, v in arrays.items()
            if not k.startswith("target_") and k != "rng_json"
        }
        arrays["version"] = np.array([1])
        atomic_savez(path, **arrays)

        loaded = load_trained(path, scenario)
        # v1 had no separate target net: migration seeds it from the Q-net.
        for (qw, qb), (tw, tb) in zip(
            loaded.agent.q_net.get_weights(), loaded.agent.target_net.get_weights()
        ):
            np.testing.assert_array_equal(qw, tw)
            np.testing.assert_array_equal(qb, tb)
        rng = np.random.default_rng(1)
        s = rng.normal(size=(4, trained.config.state_dim))
        np.testing.assert_allclose(
            trained.agent.q_net.forward(s), loaded.agent.q_net.forward(s)
        )

    @staticmethod
    def _six_hour_ungated(trained, scenario):
        predictor = trained.predictor.clone_for(scenario)
        predictor.flood_gated = False
        predictor.flood_forecast_horizon_s = 6.0 * SECONDS_PER_HOUR
        return predictor

    @staticmethod
    def _assert_same_predictions(a, b, scenario):
        nodes = scenario.network.landmark_ids()
        start = scenario.timeline.storm_start_s
        for t in (start, start + 12 * SECONDS_PER_HOUR, start + 2 * SECONDS_PER_DAY):
            np.testing.assert_array_equal(
                a.predict_node_labels(nodes, t), b.predict_node_labels(nodes, t)
            )

    def test_flood_gate_survives_archive(self, trained, michael_small, tmp_path):
        import dataclasses

        scenario, _ = michael_small
        predictor = self._six_hour_ungated(trained, scenario)
        path = tmp_path / "m.npz"
        save_trained(dataclasses.replace(trained, predictor=predictor), path)
        loaded = load_trained(path, scenario).predictor
        assert loaded.flood_gated is False
        assert loaded.flood_forecast_horizon_s == 6.0 * SECONDS_PER_HOUR
        self._assert_same_predictions(predictor, loaded, scenario)

    def test_flood_gate_survives_checkpoint(self, trained, michael_small, tmp_path):
        from repro.core.persistence import (
            checkpoint_from_training,
            load_checkpoint,
            restore_predictor,
            save_checkpoint,
        )

        scenario, _ = michael_small
        predictor = self._six_hour_ungated(trained, scenario)
        ckpt = checkpoint_from_training(
            trained.agent, predictor, trained.config, 1, [0.5]
        )
        loaded = restore_predictor(load_checkpoint(save_checkpoint(tmp_path, ckpt)), scenario)
        assert loaded.flood_gated is False
        assert loaded.flood_forecast_horizon_s == 6.0 * SECONDS_PER_HOUR
        self._assert_same_predictions(predictor, loaded, scenario)

    def test_v2_archive_loads_with_default_gate(self, trained, michael_small, tmp_path):
        from repro.core.artifacts import atomic_savez

        scenario, _ = michael_small
        path = tmp_path / "m.npz"
        save_trained(trained, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        # Strip everything the v3 format added, as a v2 writer would have.
        del arrays["flood_gated"], arrays["flood_forecast_horizon_s"]
        arrays["version"] = np.array([2])
        atomic_savez(path, **arrays)

        loaded = load_trained(path, scenario).predictor
        assert loaded.flood_gated is True
        assert loaded.flood_forecast_horizon_s == 12.0 * SECONDS_PER_HOUR
        self._assert_same_predictions(trained.predictor, loaded, scenario)

    def test_v1_checkpoint_loads_with_default_gate(self, trained, michael_small, tmp_path):
        from repro.core.artifacts import atomic_savez, write_manifest
        from repro.core.persistence import (
            checkpoint_from_training,
            load_checkpoint,
            restore_predictor,
            save_checkpoint,
        )

        scenario, _ = michael_small
        ckpt = checkpoint_from_training(
            trained.agent, trained.predictor, trained.config, 1, [0.5]
        )
        path = save_checkpoint(tmp_path, ckpt)
        with np.load(path / "state.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        del arrays["predictor.flood_gated"], arrays["predictor.flood_forecast_horizon_s"]
        arrays["version"] = np.array([1])
        atomic_savez(path / "state.npz", **arrays)
        write_manifest(path, 1)

        loaded = restore_predictor(load_checkpoint(path), scenario)
        assert loaded.flood_gated is True
        assert loaded.flood_forecast_horizon_s == 12.0 * SECONDS_PER_HOUR

    def test_unknown_config_key_dropped_with_warning(
        self, trained, michael_small, tmp_path, caplog
    ):
        import json
        import logging

        from repro.core.artifacts import atomic_savez

        scenario, _ = michael_small
        path = tmp_path / "m.npz"
        save_trained(trained, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        cfg = json.loads(str(arrays["config_json"][0]))
        cfg["future_knob"] = 42
        arrays["config_json"] = np.array([json.dumps(cfg)])
        atomic_savez(path, **arrays)

        with caplog.at_level(logging.WARNING, logger="repro.core.persistence"):
            loaded = load_trained(path, scenario)
        assert loaded.config == trained.config
        assert any("future_knob" in rec.getMessage() for rec in caplog.records)
