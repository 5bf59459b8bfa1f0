"""Scenario wiring: builds entities from a config and runs the slot loop.

One Simulation owns all mutable state (vehicle positions, beliefs, caches,
cipher sessions, learners) and registers one handler per phase on the slot
engine. Everything iterates in sorted entity order, and every random draw
comes from an entity-scoped stream, so a fixed seed fixes the whole trace.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from vecsim import channel, cipher, clustering, control_plane, ecorouting, edge, mac, mobility, predictor
from vecsim.config import ConfigError, ScenarioConfig, validate_scenario
from vecsim.kernel import Phase, SlotEngine
from vecsim.metrics import MetricsReport
from vecsim.rng import RngStream


@dataclass
class VehicleRuntime:
    """Per-vehicle mutable state across slots."""

    mobility: mobility.MobilityState
    bandit: Optional[mac.BanditState] = None
    last_decoded: Optional[bool] = None       # whether the last packet sent decoded
    last_replicas: Optional[int] = None
    selection: Optional[mac.CtuSelection] = None
    assoc_true: Optional[predictor.AssociationVector] = None
    assoc_an: Optional[predictor.AssociationVector] = None
    predicted: dict[int, tuple[int, ...]] = field(default_factory=dict)
    window_self: deque = field(default_factory=deque)
    window_an: deque = field(default_factory=deque)
    # both endpoints' state: equal before every exchange, since a rejected
    # exchange is always followed by a resync or a compromise
    session: Optional[cipher.CipherState] = None
    session_an_id: Optional[int] = None
    session_resyncs: int = 0
    session_compromised: bool = False


@dataclass
class AnRuntime:
    """Per-access-network mutable state."""

    cache: edge.CacheState
    ledger: edge.EnergyLedger
    queued_cycles: float = 0.0
    learner: Optional[ecorouting.QLearner] = None
    pending: Optional[tuple] = None
    request_counts: dict[int, int] = field(default_factory=dict)
    slot_energy: float = 0.0


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        problems = validate_scenario(cfg)
        if problems:
            raise ConfigError(problems)
        self.cfg = cfg
        self.root = RngStream(cfg.seed, "root")
        self.engine = SlotEngine(cfg.horizon)
        self._streams: dict[str, RngStream] = {}
        self._families: dict[str, dict[int, RngStream]] = {}

        self.ap_ids = sorted(a.ap_id for a in cfg.aps)
        self.an_ids = sorted(a.an_id for a in cfg.ans)
        self.ap_owner = cfg.ap_owner()
        self.an_specs = {a.an_id: a for a in cfg.ans}
        self.an_budgets_w = {a.an_id: a.power_budget_w for a in cfg.ans}
        self.ap_col = {ap: i for i, ap in enumerate(self.ap_ids)}
        self.n_aps = len(self.ap_ids)
        self.fronthaul = {a.ap_id: channel.SignalQuality(a.fronthaul_snr_db) for a in cfg.aps}

        # Static geometry: cells and APs never move, so the SNRs, each cell's
        # cluster members (its vehicles' uplink targets) and each cell's AN
        # are tables. A cell's AN owns its strongest AP (AP-id tiebreak), with
        # no threshold: coverage gates the radio (uplink packets, downlink),
        # not which AN hosts a vehicle's control flow, tasks and cipher session.
        positions = cfg.ap_positions()
        self.cell_snr: dict[int, dict[int, float]] = {}
        self.cell_members: dict[int, tuple[int, ...]] = {}
        self.cell_an: dict[int, int] = {}
        for cell in cfg.road.cells:
            center = cfg.road.centers[cell]
            row = {ap: channel.signal_quality(center, xy, cfg.channel).snr_db for ap, xy in positions.items()}
            self.cell_snr[cell] = row
            self.cell_members[cell] = clustering.form_cluster(row, cfg.snr_threshold_db, cfg.cluster.k_cluster)
            self.cell_an[cell] = self.ap_owner[min(row, key=lambda ap: (-row[ap], ap))]

        self.pool = cfg.ctu_pool
        self.curve = mac.BlerCurve(cfg.mac.bler_alpha, dict(cfg.mac.bler_beta))

        self.rows: dict[tuple[str, int], tuple[list[int], list[float]]] = {}
        for vclass in sorted(cfg.mobility.rows):
            for cell in cfg.road.cells:
                self.rows[(vclass, cell)] = mobility.row_arrays(cfg.mobility, vclass, cell)

        self.cells = list(cfg.road.cells)
        self.transitions = {
            vclass: cfg.mobility.transition_matrix(vclass, self.cells)
            for vclass in sorted(cfg.mobility.rows)
        }
        # P(path fails) per (cell, AP), for every AP a selection can aim at from
        # the cell: its cluster members and the (known) preconfigured APs
        preset = {ap for pairs in cfg.mac.preconfigured.values() for _, ap in pairs} & set(self.ap_col)
        self.path_failure = {
            (cell, ap): mac.path_failure_prob(
                channel.SignalQuality(self.cell_snr[cell][ap]), cfg.mac.relay_mode, self.fronthaul[ap], self.curve,
                cfg.mac.payload_bits,
            )
            for cell in self.cells
            for ap in {*self.cell_members[cell], *preset}
        }
        # P(AP hears vehicle | cell): in the cell's cluster and the one-replica
        # path decodes. AP ids map to likelihood columns in ascending order.
        heard_prob = {
            cell: {self.ap_col[ap]: 1.0 - self.path_failure[(cell, ap)] for ap in aps}
            for cell, aps in self.cell_members.items()
        }
        self.obs_model = predictor.derive_observation_model(
            self.cells, heard_prob, self.n_aps, cfg.predictor.obs_floor, cfg.predictor.obs_ceiling
        )

        self.sched_by_slot: dict[int, dict[int, str]] = {}
        for slot, vid, vclass in cfg.velocity_schedule:
            self.sched_by_slot.setdefault(slot, {})[vid] = vclass

        self.vehicles: dict[int, VehicleRuntime] = {}
        for spec in sorted(cfg.vehicles, key=lambda v: v.vehicle_id):
            vr = VehicleRuntime(mobility.MobilityState(spec.cell, spec.velocity_class))
            if cfg.bandit.enabled:
                vr.bandit = mac.BanditState(
                    r_max=cfg.bandit.r_max,
                    epsilon=cfg.bandit.epsilon,
                    cost_per_replica=cfg.bandit.cost_per_replica,
                )
            vr.window_self = deque(maxlen=cfg.cipher.window)
            vr.window_an = deque(maxlen=cfg.cipher.window)
            self.vehicles[spec.vehicle_id] = vr
        # the Bayes filter's beliefs, one uniform row per vehicle in self.vehicles order
        n_cells = len(self.cells)
        self.beliefs = predictor.FleetBelief(np.full((len(self.vehicles), n_cells), 1.0 / n_cells))

        # (AP rank, power level index) pairs, rank-major
        self.actions = list(itertools.product(range(cfg.downlink.ap_ranks), range(len(cfg.downlink.power_levels_w))))
        ec = cfg.edge_compute
        self.cparams = edge.ComputeParams(
            cpu_rate=ec.cpu_rate,
            cloud_rate=ec.cloud_rate,
            backhaul_rtt=ec.backhaul_rtt,
            backhaul_rate=ec.backhaul_rate,
            joules_per_cycle=ec.joules_per_cycle,
            joules_per_bit=ec.joules_per_bit,
        )
        self.ans: dict[int, AnRuntime] = {}
        for an_id in self.an_ids:
            spec = self.an_specs[an_id]
            ar = AnRuntime(
                cache=edge.CacheState(an_id, spec.storage_capacity),
                ledger=edge.EnergyLedger(an_id, ec.energy_budget_per_slot, ec.tradeoff_v),
            )
            if cfg.downlink.policy == "eco":
                ar.learner = ecorouting.QLearner(
                    owner_an=an_id,
                    actions=list(self.actions),
                    eta=cfg.downlink.eta,
                    gamma=cfg.downlink.gamma,
                    epsilon=cfg.downlink.epsilon,
                )
            self.ans[an_id] = ar

        self.catalog: dict[int, edge.Service] = {s.service_id: s for s in ec.services}
        self.service_order = sorted(self.catalog)
        # floats add left to right here: Python 3.12's sum() compensates and moves bits
        pop_total = functools.reduce(operator.add, (self.catalog[s].popularity for s in self.service_order), 0)
        shares = (self.catalog[s].popularity / pop_total if pop_total else 0.0 for s in self.service_order)
        self.service_cum = list(itertools.accumulate(shares))
        if self.service_cum:
            self.service_cum[-1] = 1.0

        self.topology: Optional[control_plane.ControlTopology] = None
        if cfg.control.enabled:
            self.topology = control_plane.ControlTopology(
                capacity={a: self.an_specs[a].controller_capacity for a in self.an_ids},
                edges={
                    (min(u, v), max(u, v)): (w, c) for u, v, w, c in cfg.control.edges
                },
                kappa=cfg.control.kappa,
            )

        # each vehicle's master key, derived at its first resync
        self.master_keys: dict[int, bytes] = {}

        self.report = MetricsReport(
            scenario_name=cfg.name,
            seed=cfg.seed,
            horizon=cfg.horizon,
            slot_duration=cfg.slot_duration,
            latency_deadline_s=cfg.latency_deadline_s,
        )

        # The report's sections are the run's counters: phases count straight
        # into them, and finalize only derives the ratios.
        r = self.report
        r.downlink = {"attempts": 0, "delivered": 0, "energy_j": 0.0}
        r.prediction = {"bits_scored": 0, "fallbacks": 0}
        r.control = {"checkpoints": []}
        r.cipher = {"messages": 0, "roundtrip_ok": 0, "resyncs": 0, "sessions": 0, "compromised": 0}
        # allocate_slices validates disjointness every slot, so overlaps stay 0
        r.slices = {"allocated_ctus": 0, "unsatisfied": 0, "overlaps": 0}
        r.bandit = {"replica_histogram": {}, "collision_ctus": 0, "mud_resolved_ctus": 0}
        r.edge = {"tasks": 0, "local": 0}
        # Sums behind the ratios, which have no summary key of their own.
        self.downlink_power_sum = 0.0
        self.pred_correct = 0
        self.persist_bits = 0
        self.persist_correct = 0
        self.edge_latency_sum = 0.0

        self._register()

    # -- construction helpers -------------------------------------------------

    def _register(self) -> None:
        e = self.engine
        e.register(Phase.MOBILITY, self._phase_mobility)
        e.register(Phase.UPLINK, self._phase_uplink)
        e.register(Phase.RELAY_DECODE, self._phase_relay_decode)
        e.register(Phase.PREDICTION, self._phase_prediction)
        e.register(Phase.DOWNLINK, self._phase_downlink)
        e.register(Phase.CONTROL_PLANE, self._phase_control)
        e.register(Phase.EDGE_COMPUTE, self._phase_edge)
        e.register(Phase.CIPHER, self._phase_cipher)

    def stream(self, label: str) -> RngStream:
        """One cached generator per purpose; adding entities or toggling one
        subsystem never shifts another subsystem's draws."""
        if label not in self._streams:
            self._streams[label] = self.root.substream(label)
        return self._streams[label]

    def _family(self, name: str, owners) -> dict[int, RngStream]:
        """Each owner's `name/<id>` stream, keyed in `owners` order; the whole
        family is seeded in one batch when a phase first needs it."""
        streams = self._families.get(name)
        if streams is None:
            ids = list(owners)
            streams = self._families[name] = dict(zip(ids, self.root.substreams([f"{name}/{i}" for i in ids])))
        return streams

    # -- phases ---------------------------------------------------------------

    def _phase_mobility(self, slot: int) -> None:
        sched = self.sched_by_slot.get(slot, {})
        streams = self._family("mobility", self.vehicles)
        for (vid, vr), rng in zip(self.vehicles.items(), streams.values()):
            state = vr.mobility
            state.velocity_class = vclass = sched.get(vid, state.velocity_class)
            targets, cum = self.rows[(vclass, state.cell)]
            state.cell = mobility.draw_from_row(targets, cum, rng)

    def _phase_uplink(self, slot: int) -> None:
        cfg = self.cfg
        histogram = self.report.bandit["replica_histogram"]
        streams = self._family("mac", self.vehicles)
        for (vid, vr), rng in zip(self.vehicles.items(), streams.values()):
            members = self.cell_members[vr.mobility.cell]
            if not members:         # nothing is sent, so the bandit neither draws nor learns
                vr.selection = None
                continue
            if vr.bandit is not None:
                replicas = mac.bandit_select_and_update(
                    vr.bandit, vr.last_decoded, vr.last_replicas, self._family("bandit", self.vehicles)[vid]
                )
            else:
                replicas = cfg.mac.replicas
            vr.selection = mac.select_ctus(
                vid,
                members,
                replicas,
                self.pool,
                rng,
                policy=cfg.mac.ctu_policy,
                preconfigured=cfg.mac.preconfigured or None,
            )
            # a preconfigured pair list, not `replicas`, fixes how many CTUs carry the packet
            vr.last_replicas = sent = len(vr.selection.ctus)
            histogram[str(sent)] = histogram.get(str(sent), 0) + 1

    def _phase_relay_decode(self, slot: int) -> None:
        cfg = self.cfg
        selections = [vr.selection for vr in self.vehicles.values() if vr.selection is not None]
        occupancy = mac.detect_collisions(selections)
        # MUD separates every occupant of a CTU or none of them
        separable: dict[int, bool] = {}
        bandit = self.report.bandit
        for ctu in sorted(occupancy):
            occupants = occupancy[ctu]
            separable[ctu] = ok = all(mac.mud_resolve(occupants, cfg.mac.k_max).values())
            if len(occupants) > 1:
                bandit["collision_ctus"] += 1
                bandit["mud_resolved_ctus"] += ok

        flip = cfg.cipher.an_view_flip_prob
        streams = self._family("decode", self.vehicles)
        for (vid, vr), decode in zip(self.vehicles.items(), streams.values()):
            heard = [0] * self.n_aps        # association bits, by AP column
            selection = vr.selection
            if selection is None:
                # out of coverage: no packet went out, and last_decoded keeps
                # the outcome of the last one that did for the bandit's update
                self.report.record_packet(vid, slot, False, 0, 0)
            else:
                # selection combining: the packet is in if any path decoded
                decoded = False
                cell = vr.mobility.cell
                for ctu, ap in zip(selection.ctus, selection.target_aps):
                    # a path over a lost CTU draws nothing
                    if separable[ctu] and decode.random() >= self.path_failure[(cell, ap)]:
                        decoded = True
                        heard[self.ap_col[ap]] = 1
                vr.last_decoded = decoded
                paths = len(set(selection.target_aps))
                self.report.record_packet(vid, slot, decoded, vr.last_replicas, paths)
            bits = tuple(heard)
            vr.assoc_true = predictor.AssociationVector(vid, slot, bits)
            if flip > 0.0:
                noise = self._family("anview", self.vehicles)[vid]
                bits_an = tuple(b ^ (1 if noise.random() < flip else 0) for b in bits)
                vr.assoc_an = predictor.AssociationVector(vid, slot, bits_an)
            else:
                vr.assoc_an = vr.assoc_true

    def _phase_prediction(self, slot: int) -> None:
        cfg = self.cfg
        prediction = self.report.prediction
        observed = []
        for vr in self.vehicles.values():
            obs = vr.assoc_an.bits
            observed.append(obs)
            # Score the predictions aimed at this slot before replacing them:
            # the filter's one-step-ahead bits and the persistence baseline
            # (yesterday's vector repeats), both against today's actual.
            want = vr.predicted.get(slot)
            if want is not None:
                prediction["bits_scored"] += self.n_aps
                self.pred_correct += sum(map(operator.eq, want, obs))
            prev = vr.window_an[-1] if vr.window_an else None
            if prev is not None:
                self.persist_bits += self.n_aps
                self.persist_correct += sum(map(operator.eq, prev.bits, obs))
        if cfg.predictor.policy == "bayes":
            trans = [self.transitions[vr.mobility.velocity_class] for vr in self.vehicles.values()]
            fellback = predictor.update_fleet(self.beliefs, observed, trans, self.obs_model)
            prediction["fallbacks"] += int(fellback.sum())
            predicted = predictor.predict_fleet(self.beliefs, trans, self.obs_model, cfg.predictor.threshold)
        else:
            predicted = observed
        for vr, bits in zip(self.vehicles.values(), predicted):
            vr.predicted[slot + 1] = bits
            vr.predicted.pop(slot - 1, None)

    def _phase_downlink(self, slot: int) -> None:
        cfg = self.cfg
        # each covered vehicle's cluster, in vehicle order, and how many each AN serves
        clusters = [
            clustering.VirtualCluster(vid, members, self.cell_an[vr.mobility.cell])
            for vid, vr in self.vehicles.items()
            if (members := self.cell_members[vr.mobility.cell])
        ]
        an_load = Counter(c.an for c in clusters)
        slices = clustering.allocate_slices(clusters, self.pool, cfg.cluster.downlink_ctu_demand, self.an_budgets_w)
        self.report.slices["allocated_ctus"] += sum(len(v) for v in slices.ctus.values())
        self.report.slices["unsatisfied"] += sum(slices.unsatisfied.values())
        downlink = self.report.downlink
        eco, dldecode = self._family("eco", self.an_ids), self._family("dldecode", self.an_ids)

        for c in clusters:
            vid, members, an_id = c.center_vehicle, c.members, c.an
            if not slices.ctus.get(vid):
                continue                       # no downlink resources this slot
            vr = self.vehicles[vid]
            ar = self.ans[an_id]
            pred_bits = vr.predicted.get(slot)
            if pred_bits is None:
                pred_bits = tuple(1 if ap in members else 0 for ap in self.ap_ids)
            cand_aps = [ap for ap, bit in zip(self.ap_ids, pred_bits) if bit]
            load_b = min(cfg.downlink.load_buckets - 1, an_load[an_id] - 1)
            snrs = self.cell_snr[vr.mobility.cell]
            snr_b = int(snrs[members[0]] // cfg.downlink.snr_bucket_db)
            state = (load_b, snr_b)

            if ar.learner is not None:
                action = ar.learner.select(state, eco[an_id])
            else:
                action = self.actions[eco[an_id].integers(len(self.actions))]
            rank, p_idx = action
            # Slice power is the hard cap; the learner sees the consequence.
            power_w = min(cfg.downlink.power_levels_w[p_idx], slices.power_w.get(vid, 0.0))
            delivered = False
            if rank < len(cand_aps) and power_w > 0.0:
                ap = cand_aps[rank]
                up_snr = snrs[ap]
                if up_snr >= cfg.snr_threshold_db:
                    delta_db = 10.0 * math.log10(power_w * 1000.0) - cfg.channel.tx_power_dbm
                    dl_snr = up_snr + delta_db
                    p_ok = 1.0 - self.curve.bler(dl_snr, cfg.mac.payload_bits)
                    delivered = dldecode[an_id].random() < p_ok
            energy = power_w * cfg.slot_duration
            self.report.record_energy(an_id, slot, energy)
            downlink["attempts"] += 1
            downlink["delivered"] += 1 if delivered else 0
            downlink["energy_j"] += energy
            self.downlink_power_sum += power_w
            reward = ecorouting.delivery_reward(
                delivered, power_w, cfg.downlink.w_delivery, cfg.downlink.w_power
            )
            if ar.learner is not None:
                if ar.pending is not None:
                    ps, pa, pr = ar.pending
                    ar.learner.update(ps, pa, pr, state)
                ar.pending = (state, action, reward)

    def _phase_control(self, slot: int) -> None:
        cfg = self.cfg
        if self.topology is None:
            return
        if slot % cfg.control.period_slots != 0:
            return
        demands = [
            control_plane.Demand(vid, self.cell_an[vr.mobility.cell], cfg.control.rate_per_vehicle)
            for vid, vr in self.vehicles.items()
        ]
        entry: dict = {"slot": slot}
        try:
            placement = control_plane.place_controllers(
                self.topology, demands, cfg.control.latency_bound_s
            )
            routing = control_plane.balance_control_traffic(placement, self.topology, demands)
            target = cfg.control.target_mean_latency_s
            if target is not None:
                placement, routing = control_plane.replace_on_feedback(
                    placement,
                    routing,
                    self.topology,
                    demands,
                    target,
                    tighten_factor=cfg.control.tighten_factor,
                    max_iters=cfg.control.max_feedback_iters,
                )
            entry["controllers"] = sorted(placement.controllers)
            entry["exact"] = placement.exact
            entry["mean_latency_s"] = routing.mean_latency
            sync_graph = control_plane.relay_free_controller_graph(
                self.topology, placement.controllers
            )
            views = {
                c: {f"view_{c}": 1, **{f"view_{o}": 0 for o in placement.controllers if o != c}}
                for c in placement.controllers
            }
            rounds, _ = control_plane.sync_controllers(sync_graph, views)
            entry["sync_rounds"] = rounds
            for c in sorted(placement.controllers):
                self.report.record_decision("controller", slot, an_id=c, decision="open")
        except control_plane.InfeasiblePlacement as exc:
            entry["infeasible"] = exc.binding
        except control_plane.CongestionInfeasible:
            entry["infeasible"] = "congestion"
        self.report.control["checkpoints"].append(entry)

    def _phase_edge(self, slot: int) -> None:
        cfg = self.cfg
        ec = cfg.edge_compute
        if ec.enabled and self.catalog:
            if slot % ec.recache_period == 0:
                for an_id in self.an_ids:
                    ar = self.ans[an_id]
                    pop = (
                        {sid: float(n) for sid, n in ar.request_counts.items()}
                        if ar.request_counts
                        else {sid: self.catalog[sid].popularity for sid in self.service_order}
                    )
                    ar.cache.cached = edge.decide_cache(self.catalog, pop, ar.cache.capacity)
                    ar.request_counts = {}
            rng = self.stream("edge/tasks")
            for vid, vr in self.vehicles.items():
                if rng.random() >= ec.task_arrival_prob:
                    continue
                service = self.catalog[self.service_order[bisect.bisect_left(self.service_cum, rng.random())]]
                an_id = self.cell_an[vr.mobility.cell]
                ar = self.ans[an_id]
                ar.request_counts[service.service_id] = ar.request_counts.get(service.service_id, 0) + 1
                task = edge.Task(service.service_id, vid, ec.input_bits, slot)
                decision = edge.decide_offload(
                    task, service, ar.cache, ar.ledger, ar.queued_cycles, self.cparams,
                    policy=ec.offload_policy,
                )
                self.report.edge["tasks"] += 1
                if decision.where == "local":
                    self.report.edge["local"] += 1
                    ar.queued_cycles += service.cycles_per_task
                ar.slot_energy += decision.energy_j
                self.edge_latency_sum += decision.latency_s
                self.report.record_decision(
                    "offload", slot, an_id, vid, service.service_id,
                    decision.where, decision.latency_s, decision.energy_j,
                )
        for an_id in self.an_ids:
            ar = self.ans[an_id]
            ar.queued_cycles = max(0.0, ar.queued_cycles - self.cparams.cpu_rate * cfg.slot_duration)
            edge.settle_slot(ar.ledger, ar.slot_energy)
            self.report.record_energy(an_id, slot, ar.slot_energy)
            ar.slot_energy = 0.0

    def _phase_cipher(self, slot: int) -> None:
        cfg = self.cfg
        counts = self.report.cipher
        for vid, vr in self.vehicles.items():
            vr.window_self.append(vr.assoc_true)
            vr.window_an.append(vr.assoc_an)
            if not cfg.cipher.enabled:
                continue
            an_id = self.cell_an[vr.mobility.cell]
            if vr.session is None or vr.session_an_id != an_id:
                vr.session = cipher.start_session(vid, an_id, self._family("cipher", self.vehicles)[vid])[0]
                vr.session_an_id = an_id
                vr.session_resyncs = 0
                vr.session_compromised = False
                counts["sessions"] += 1
            if vr.session_compromised:
                continue
            fp_v = cipher.Fingerprint(vid, tuple(vr.window_self))
            n_bits = cfg.mac.payload_bits
            if vr.window_an == vr.window_self:
                # In sync, exchange reads only the message's masked tail, which
                # deterministic_message always zeroes, so a zero message stands in.
                fp_a, msg = fp_v, bytes((n_bits + 7) // 8)
            else:
                fp_a = cipher.Fingerprint(vid, tuple(vr.window_an))
                msg = cipher.deterministic_message(vid, slot, n_bits)
            verified, roundtrip, vr.session, _ = cipher.exchange(vr.session, fp_v, vr.session, fp_a, msg, n_bits)
            counts["messages"] += 1
            if verified:
                counts["roundtrip_ok"] += roundtrip
            else:
                vr.session_resyncs += 1
                counts["resyncs"] += 1
                if vr.session_resyncs > cfg.cipher.max_resync:
                    vr.session_compromised = True
                    counts["compromised"] += 1
                    continue
                if vid not in self.master_keys:
                    self.master_keys[vid] = cipher.master_key_for(vid, self.stream("cipher-master"))
                vr.session = cipher.resync_session(self.master_keys[vid], fp_a, vr.session_resyncs)[0]
                # The vehicle adopts the AN-side window out of band.
                vr.window_self = deque(vr.window_an, maxlen=cfg.cipher.window)

    # -- results --------------------------------------------------------------

    def finalize(self) -> MetricsReport:
        r = self.report
        attempts, bits = r.downlink["attempts"], r.prediction["bits_scored"]
        r.downlink["delivery_rate"] = (r.downlink["delivered"] / attempts) if attempts else None
        r.downlink["mean_power_w"] = (self.downlink_power_sum / attempts) if attempts else None
        r.prediction["accuracy"] = (self.pred_correct / bits) if bits else None
        r.prediction["persistence_accuracy"] = (
            (self.persist_correct / self.persist_bits) if self.persist_bits else None
        )
        tasks, local = r.edge["tasks"], r.edge["local"]
        r.edge["cloud"] = tasks - local
        r.edge["local_fraction"] = (local / tasks) if tasks else None
        r.edge["mean_latency_s"] = (self.edge_latency_sum / tasks) if tasks else None
        r.edge["final_deficit_by_an"] = {str(a): self.ans[a].ledger.deficit for a in self.an_ids}
        return r


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Build a simulation from the config, run it to horizon, return the report."""
    sim = Simulation(cfg)
    sim.engine.run()
    return sim.finalize()
