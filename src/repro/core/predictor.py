"""SVM prediction of the distribution of potential rescue requests.

Implements Section IV-B: a person's disaster-related factor vector
``h = (precipitation, wind speed, altitude)`` is classified into "should be
rescued" / "should not be rescued" (Eq. 1); summing positive decisions per
road segment yields the predicted distribution ``ñ_e`` (Eq. 2).

Training data comes from the previous disaster's trace exactly as the paper
builds it (Section III-B2 + V-B): hospital deliveries are detected from the
trace (>= 2 h dwell), deliveries whose previous staying position lies in a
flood zone are ground-truth rescues (positives, featurized at that position
and time), and persons who were never rescued provide negatives at sampled
storm-window positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.charlotte import CharlotteScenario
from repro.hospitals.delivery import detect_deliveries, label_rescued
from repro.mobility.cleaning import clean_trace
from repro.mobility.generator import TraceBundle
from repro.mobility.mapmatch import MatchedTrajectories, map_match
from repro.ml.metrics import ClassificationCounts, confusion_counts
from repro.ml.scaler import StandardScaler
from repro.ml.svm import SVC


@dataclass(frozen=True)
class TrainingSet:
    """Featurized rescue-decision training data."""

    x: np.ndarray  # (N, 3) factor vectors
    y: np.ndarray  # (N,) labels in {0, 1}

    def __post_init__(self) -> None:
        if self.x.ndim != 2 or self.x.shape[1] != 3:
            raise ValueError("x must be (N, 3) factor vectors")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y must align with x")

    @property
    def num_positive(self) -> int:
        return int(self.y.sum())


def build_training_set(
    scenario: CharlotteScenario,
    bundle: TraceBundle,
    matched: MatchedTrajectories | None = None,
    negatives_per_positive: int = 2,
    seed: int = 0,
) -> TrainingSet:
    """Build the rescue-decision training set from a disaster trace.

    Positives: detected hospital deliveries whose previous staying position
    was flooded, featurized at that position and time (the paper's ground
    truth).  Negatives: never-rescued persons at positions sampled across
    the storm window.
    """
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    rng = np.random.default_rng(seed)
    part = scenario.partition
    clean, _ = clean_trace(bundle.trace, part.width_m, part.height_m)
    if matched is None:
        matched = map_match(clean, scenario.network)
    deliveries = detect_deliveries(clean, scenario.network, scenario.hospitals)

    weather = scenario.weather
    pos_x: list[np.ndarray] = []
    pos_times: list[float] = []
    rescued_pids: set[int] = set()
    for ev, rescued in label_rescued(deliveries, scenario.flood):
        if not rescued or ev.prev_xy is None:
            continue
        rescued_pids.add(ev.person_id)
        pos_x.append(weather.factor_vector(ev.prev_xy[0], ev.prev_xy[1], ev.prev_time_s))
        pos_times.append(ev.prev_time_s)
    if not pos_x:
        raise ValueError("no ground-truth rescues found in the training trace")

    n_neg = negatives_per_positive * len(pos_x)
    # Negatives are sampled at the *same times* the positives occurred
    # (with jitter): otherwise most negatives land in calm weather and the
    # classifier learns "rain means rescue" instead of who, under the same
    # rain, is actually in danger.
    sample_times = rng.choice(np.array(pos_times), size=12, replace=True)
    sample_times = np.clip(
        sample_times + rng.uniform(-2.0, 2.0, size=12) * 3_600.0,
        0.0,
        scenario.timeline.duration_s,
    )
    neg_candidates: list[tuple[int, float]] = []  # (node, t)
    for t in sample_times:
        for pid, node in matched.nodes_at_time(float(t)).items():
            if pid not in rescued_pids:
                neg_candidates.append((node, float(t)))
    if not neg_candidates:
        raise ValueError("no negative examples available")
    pick = rng.choice(len(neg_candidates), size=min(n_neg, len(neg_candidates)), replace=False)
    net = scenario.network
    neg_xy = np.array(
        [net.landmark(neg_candidates[i][0]).xy for i in pick]
    )
    neg_t = [neg_candidates[i][1] for i in pick]
    neg_x = np.array(
        [weather.factor_vector(xy[0], xy[1], t) for xy, t in zip(neg_xy, neg_t)]
    )

    x = np.vstack([np.array(pos_x), neg_x])
    y = np.concatenate([np.ones(len(pos_x), dtype=int), np.zeros(len(neg_x), dtype=int)])
    order = rng.permutation(len(y))
    return TrainingSet(x=x[order], y=y[order])


class RequestPredictor:
    """Scaler + SVM pipeline over disaster-related factor vectors."""

    def __init__(
        self,
        scenario: CharlotteScenario,
        kernel: str = "rbf",
        c: float = 2.0,
        gamma: float = 0.5,
        seed: int = 0,
        flood_gated: bool = True,
    ) -> None:
        #: MobiRescue also receives the NWS satellite flood imaging (it
        #: builds the operable network G̃ from it), so positive rescue
        #: decisions are gated on the flood mask: nobody on dry ground needs
        #: flood rescue.  The SVM discriminates *within* flooded areas.
        self.flood_gated = flood_gated
        #: Flood-forecast lookahead for the gate, seconds.
        self.flood_forecast_horizon_s = 12.0 * 3_600.0
        self.scenario = scenario
        self.scaler = StandardScaler()
        self.svm = SVC(c=c, kernel=kernel, gamma=gamma, seed=seed)
        net = scenario.network
        node_ids = net.landmark_ids()
        self._node_index = {n: i for i, n in enumerate(node_ids)}
        self._node_ids = np.array(node_ids, dtype=np.int64)
        node_xy = np.array([net.landmark(n).xy for n in node_ids])
        self._node_segment = np.array(
            [net.nearest_segment(*net.landmark(n).xy) for n in node_ids]
        )
        # Static landmark tables: altitude and region slot never change, so
        # a dispatch cycle only evaluates the 7 region-level weather factors
        # and waterlines and gathers them by slot (the same floats the
        # per-point factor_vectors / is_flooded_many paths produce).
        weather, flood = scenario.weather, scenario.flood
        self._node_alt = weather.terrain.altitude_many(node_xy)
        self._node_flood_alt = (
            self._node_alt
            if flood.terrain is weather.terrain
            else flood.terrain.altitude_many(node_xy)
        )
        self._node_slot = weather.partition.region_slot_many(node_xy)

    @property
    def is_fitted(self) -> bool:
        return self.svm.is_fitted

    def fit(self, training: TrainingSet) -> "RequestPredictor":
        x = self.scaler.fit_transform(training.x)
        self.svm.fit(x, training.y)
        return self

    def clone_for(self, scenario: CharlotteScenario) -> "RequestPredictor":
        """Same fitted model, deployed against another scenario.

        The paper trains on Hurricane Michael and deploys on Florence; the
        learned decision surface over factor vectors transfers, while the
        node tables and weather feed come from the deployment scenario.
        """
        other = RequestPredictor(
            scenario, kernel=self.svm.kernel_name, flood_gated=self.flood_gated
        )
        other.flood_forecast_horizon_s = self.flood_forecast_horizon_s
        other.scaler = self.scaler
        other.svm = self.svm
        return other

    # -- inference -----------------------------------------------------------

    def predict_labels(self, factors: np.ndarray) -> np.ndarray:
        """Eq. 1 over raw factor vectors: 1 = should be rescued."""
        return self.svm.predict(self.scaler.transform(np.atleast_2d(factors)))

    def evaluate(self, test: TrainingSet) -> ClassificationCounts:
        return confusion_counts(test.y, self.predict_labels(test.x))

    def predict_node_labels(self, nodes: list[int], t_s: float) -> np.ndarray:
        """Rescue decisions for persons standing at the given landmarks.

        An id outside the scenario's landmark table raises ``ValueError``
        (not a bare ``KeyError``): it means the position feed and the road
        network disagree — exactly the corruption the service ingest guard
        quarantines upstream (``unknown_person``/``unknown_node`` codes).
        """
        if len(nodes) == 0:
            return np.zeros(0, dtype=int)
        return self._labels_at(self._landmark_rows(nodes), t_s)

    def _landmark_rows(self, nodes) -> np.ndarray:
        """Row of each landmark id in the static tables (``ValueError`` on
        an id the scenario does not have)."""
        ids = np.asarray(nodes)
        if ids.dtype.kind not in "iu":
            raise ValueError(f"landmark ids must be integers, got {ids.dtype}")
        table = self._node_ids
        rows = np.searchsorted(table, ids)
        known = rows < len(table)
        known[known] = table[rows[known]] == ids[known]
        if not known.all():
            bad = ids[int(np.argmin(known))].item()
            raise ValueError(f"unknown landmark id {bad!r} in position feed")
        return rows

    def _labels_at(self, rows: np.ndarray, t_s: float) -> np.ndarray:
        """Eq. 1 for the landmarks at ``rows`` of the static tables."""
        slots = self._node_slot[rows]
        precip, wind = self.scenario.weather.region_factors(t_s)
        factors = np.column_stack([precip[slots], wind[slots], self._node_alt[rows]])
        labels = self.predict_labels(factors)
        if self.flood_gated:
            # Gate on current flood imaging OR the short-horizon forecast:
            # rivers are forecast hours ahead, and a person whose position
            # floods this afternoon is a potential rescue request now.
            flood = self.scenario.flood
            alt = self._node_flood_alt[rows]
            flooded = (alt <= flood.waterlines(t_s)[slots]) | (
                alt <= flood.waterlines(t_s + self.flood_forecast_horizon_s)[slots]
            )
            labels = labels & flooded.astype(int)
        return labels

    def predict_request_distribution(
        self, person_nodes: dict[int, int], t_s: float
    ) -> dict[int, int]:
        """Eq. 2: predicted number of potential requests per road segment.

        ``person_nodes`` maps person id -> current landmark (from the
        real-time cellphone feed).  Persons at the same landmark share a
        factor vector, so the whole population reduces to one feature
        matrix over occupied landmarks: counting, classification and the
        segment aggregation of Eq. 2 are all vectorized.
        """
        if not person_nodes:
            return {}
        occupied = np.fromiter(
            person_nodes.values(), dtype=np.int64, count=len(person_nodes)
        )
        uniq, counts = np.unique(occupied, return_counts=True)
        rows = self._landmark_rows(uniq)
        labels = np.asarray(self._labels_at(rows, t_s))
        segs = self._node_segment[rows]
        pos = labels == 1
        dist: dict[int, int] = {}
        for seg, n in zip(segs[pos], counts[pos]):
            dist[int(seg)] = dist.get(int(seg), 0) + int(n)
        return dist
