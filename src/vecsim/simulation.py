"""Scenario wiring: builds entities from a config and runs the slot loop.

One Simulation owns all mutable state (vehicle positions, beliefs, caches,
cipher session counts, learners) and registers one handler per phase on the
slot engine. Everything iterates in sorted entity order, and every random draw
comes from an entity-scoped stream, so a fixed seed fixes the whole trace.
Set-up walks each road cell once over its row of `channel.snr_table`. The
cipher phase counts the outcomes `vecsim.cipher`'s exchanges are fixed to,
without running them (see `_phase_cipher`). Only the slot loop builds the
runtime records, so they are plain slotted classes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Optional

import numpy as np

from vecsim import channel, clustering, control_plane, ecorouting, edge, mac, mobility, predictor
from vecsim.config import ConfigError, ScenarioConfig, validate_scenario
from vecsim.kernel import Phase, SlotEngine
from vecsim.metrics import MetricsReport
from vecsim.rng import RngStream


class VehicleRuntime:
    """Per-vehicle mutable state across slots."""

    __slots__ = (
        "cell", "velocity_class", "bandit", "last_decoded", "last_replicas", "selection", "assoc_true", "assoc_an",
        "last_assoc_an", "predicted", "predicted_next", "agreed_slots", "session_an_id", "session_resyncs",
        "session_compromised",
    )

    def __init__(self, cell: int, velocity_class: str):
        self.cell = cell
        self.velocity_class = velocity_class
        self.bandit: Optional[mac.BanditState] = None
        self.last_decoded: Optional[bool] = None        # whether the last packet sent decoded
        self.last_replicas: Optional[int] = None
        self.selection: Optional[mac.CtuSelection] = None
        self.assoc_true: Optional[tuple[int, ...]] = None       # this slot's association bits, by AP column
        self.assoc_an: Optional[tuple[int, ...]] = None         # and as the AN records them
        self.last_assoc_an: Optional[tuple[int, ...]] = None    # the AN's record of the previous slot
        self.predicted: Optional[tuple[int, ...]] = None        # association bits predicted for this slot
        self.predicted_next: Optional[tuple[int, ...]] = None   # and for the next one
        # trailing slots whose two association views agree: the vehicle's
        # fingerprint window equals the AN's exactly when this covers the window
        self.agreed_slots = 0
        self.session_an_id: Optional[int] = None
        self.session_resyncs = 0
        self.session_compromised = False


class AnRuntime:
    """Per-access-network mutable state."""

    __slots__ = ("cache", "ledger", "queued_cycles", "learner", "pending", "request_counts", "slot_energy")

    def __init__(self, cache: edge.CacheState, ledger: edge.EnergyLedger):
        self.cache = cache
        self.ledger = ledger
        self.queued_cycles = 0.0
        self.learner: Optional[ecorouting.QLearner] = None
        self.pending: Optional[tuple] = None
        self.request_counts: dict[int, int] = {}
        self.slot_energy = 0.0


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        problems = validate_scenario(cfg)
        if problems:
            raise ConfigError(problems)
        self.cfg = cfg
        self.root = RngStream(cfg.seed, "root")
        self.engine = SlotEngine(cfg.horizon)
        self._families: dict[str, dict[int | str, RngStream]] = {}

        self.ap_ids = sorted(a.ap_id for a in cfg.aps)
        self.an_ids = sorted(a.an_id for a in cfg.ans)
        self.ap_owner = cfg.ap_owner()
        self.an_specs = {a.an_id: a for a in cfg.ans}
        self.an_budgets_w = {a.an_id: a.power_budget_w for a in cfg.ans}
        self.ap_col = {ap: i for i, ap in enumerate(self.ap_ids)}
        self.n_aps = len(self.ap_ids)
        self.fronthaul = {a.ap_id: a.fronthaul_snr_db for a in cfg.aps}

        self.cells = list(cfg.road.cells)
        self.rows: dict[tuple[str, int], mobility.DrawRow] = {}
        self.transitions: dict[str, mobility.SparseTransition] = {}
        for vclass in sorted(cfg.mobility.rows):
            draws, self.transitions[vclass] = cfg.mobility.transition_matrix(vclass, self.cells)
            self.rows.update(((vclass, cell), draw) for cell, draw in zip(self.cells, draws))

        # Static geometry: cells and APs never move, so each cell is walked once
        # over its {AP: SNR} row of one SNR table. The walk ranks the cell: its
        # cluster members (its vehicles' uplink targets) and its AN, which owns
        # the ranking's head, with no threshold: coverage gates the radio
        # (uplink, downlink), not which AN hosts a vehicle's control flow, tasks
        # and cipher session. It then fills P(path fails) for every AP a
        # selection can aim at from the cell, its members and the (known)
        # preconfigured APs, and P(AP hears vehicle | cell): in the cell's
        # cluster and the one-replica path decodes, by likelihood column (AP
        # ids ascending).
        self.pool = cfg.ctu_pool
        self.curve = mac.BlerCurve(cfg.mac.bler_alpha, dict(cfg.mac.bler_beta))
        preset = {ap for pairs in cfg.mac.preconfigured.values() for _, ap in pairs} & set(self.ap_col)
        centers = [cfg.road.centers[c] for c in self.cells]
        self.cell_snr: dict[int, dict[int, float]] = dict(
            zip(self.cells, channel.snr_table(centers, cfg.ap_positions(), cfg.channel))
        )
        self.cell_members: dict[int, tuple[int, ...]] = {}
        self.cell_an: dict[int, int] = {}
        self.path_failure: dict[tuple[int, int], float] = {}
        heard_prob: dict[int, dict[int, float]] = {}
        threshold, k, relay_mode, payload_bits = (
            cfg.snr_threshold_db, cfg.cluster.k_cluster, cfg.mac.relay_mode, cfg.mac.payload_bits
        )
        for cell, row in self.cell_snr.items():
            members, head = clustering.rank_cell(row, threshold, k)
            self.cell_members[cell] = members
            self.cell_an[cell] = self.ap_owner[head]
            heard = heard_prob[cell] = {}
            for ap in {*members, *preset}:
                p_fail = mac.path_failure_prob(row[ap], relay_mode, self.fronthaul[ap], self.curve, payload_bits)
                self.path_failure[(cell, ap)] = p_fail
                if ap in members:
                    heard[self.ap_col[ap]] = 1.0 - p_fail
        self.obs_model = predictor.derive_observation_model(
            self.cells, heard_prob, self.n_aps, cfg.predictor.obs_floor, cfg.predictor.obs_ceiling
        )

        self.sched_by_slot: dict[int, dict[int, str]] = {}
        for slot, vid, vclass in cfg.velocity_schedule:
            self.sched_by_slot.setdefault(slot, {})[vid] = vclass

        self.vehicles: dict[int, VehicleRuntime] = {}
        for spec in sorted(cfg.vehicles, key=lambda v: v.vehicle_id):
            vr = VehicleRuntime(spec.cell, spec.velocity_class)
            if cfg.bandit.enabled:
                vr.bandit = mac.BanditState(
                    r_max=cfg.bandit.r_max,
                    epsilon=cfg.bandit.epsilon,
                    cost_per_replica=cfg.bandit.cost_per_replica,
                )
            self.vehicles[spec.vehicle_id] = vr
        # the Bayes filter's beliefs, one uniform row per vehicle in self.vehicles order
        n_cells = len(self.cells)
        self.beliefs = predictor.FleetBelief(np.full((len(self.vehicles), n_cells), 1.0 / n_cells))

        # (AP rank, power level index) pairs, rank-major
        self.actions = list(itertools.product(range(cfg.downlink.ap_ranks), range(len(cfg.downlink.power_levels_w))))
        ec = cfg.edge_compute
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
        # each slot's CTU runs come from one advancing offset, so overlaps stay 0
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

    def _family(self, name: str, owners) -> dict[int | str, RngStream]:
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
            vr.velocity_class = vclass = sched.get(vid, vr.velocity_class)
            targets, cum = self.rows[(vclass, vr.cell)]
            vr.cell = mobility.draw_from_row(targets, cum, rng)

    def _phase_uplink(self, slot: int) -> None:
        cfg = self.cfg
        histogram = self.report.bandit["replica_histogram"]
        streams = self._family("mac", self.vehicles)
        bandits = self._family("bandit", self.vehicles) if cfg.bandit.enabled else {}
        policy, preconfigured = cfg.mac.ctu_policy, cfg.mac.preconfigured or None
        for (vid, vr), rng in zip(self.vehicles.items(), streams.values()):
            members = self.cell_members[vr.cell]
            if not members:         # nothing is sent, so the bandit neither draws nor learns
                vr.selection = None
                continue
            if vr.bandit is not None:
                replicas = mac.bandit_select_and_update(vr.bandit, vr.last_decoded, vr.last_replicas, bandits[vid])
            else:
                replicas = cfg.mac.replicas
            vr.selection = mac.select_ctus(
                vid, members, replicas, self.pool, rng, policy=policy, preconfigured=preconfigured
            )
            # a preconfigured pair list, not `replicas`, fixes how many CTUs carry the packet
            vr.last_replicas = sent = len(vr.selection.ctus)
            key = str(sent)
            histogram[key] = histogram.get(key, 0) + 1

    def _phase_relay_decode(self, slot: int) -> None:
        cfg = self.cfg
        selections = [vr.selection for vr in self.vehicles.values() if vr.selection is not None]
        occupancy = mac.detect_collisions(selections)
        # MUD separates every occupant of a CTU or none of them, and a lone one (k_max >= 1)
        lost: set[int] = set()
        bandit = self.report.bandit
        for ctu, occupants in occupancy.items():
            if len(occupants) > 1:
                ok = mac.mud_resolve(occupants, cfg.mac.k_max)
                bandit["collision_ctus"] += 1
                bandit["mud_resolved_ctus"] += ok
                if not ok:
                    lost.add(ctu)

        flip = cfg.cipher.an_view_flip_prob
        streams = self._family("decode", self.vehicles)
        anview = self._family("anview", self.vehicles) if flip > 0.0 else None
        path_failure, ap_col, record_packet = self.path_failure, self.ap_col, self.report.record_packet
        for (vid, vr), decode in zip(self.vehicles.items(), streams.values()):
            heard = [0] * self.n_aps        # association bits, by AP column
            selection = vr.selection
            if selection is None:
                # out of coverage: no packet went out, and last_decoded keeps
                # the outcome of the last one that did for the bandit's update
                record_packet(vid, slot, False, 0, 0)
            else:
                # selection combining: the packet is in if any path decoded
                decoded = False
                cell = vr.cell
                for ctu, ap in zip(selection.ctus, selection.target_aps):
                    # a path over a lost CTU draws nothing
                    if ctu not in lost and decode.random() >= path_failure[(cell, ap)]:
                        decoded = True
                        heard[ap_col[ap]] = 1
                vr.last_decoded = decoded
                paths = len(set(selection.target_aps))
                record_packet(vid, slot, decoded, vr.last_replicas, paths)
            vr.assoc_true = bits = tuple(heard)
            if anview is not None:
                noise = anview[vid]
                vr.assoc_an = tuple(b ^ (1 if noise.random() < flip else 0) for b in bits)
            else:
                vr.assoc_an = bits

    def _phase_prediction(self, slot: int) -> None:
        cfg = self.cfg
        prediction = self.report.prediction
        n_aps = self.n_aps
        vehicles = self.vehicles.values()
        observed = [vr.assoc_an for vr in vehicles]
        for vr, obs in zip(vehicles, observed):
            # Score the predictions aimed at this slot: the filter's
            # one-step-ahead bits and the persistence baseline (yesterday's
            # vector repeats), both against today's actual.
            vr.predicted = want = vr.predicted_next
            if want is not None:
                prediction["bits_scored"] += n_aps
                self.pred_correct += sum(map(operator.eq, want, obs))
            if (last := vr.last_assoc_an) is not None:
                self.persist_bits += n_aps
                self.persist_correct += sum(map(operator.eq, last, obs))
            vr.last_assoc_an = obs
        if cfg.predictor.policy == "bayes":
            trans = [self.transitions[vr.velocity_class] for vr in vehicles]
            prediction["fallbacks"] += predictor.update_fleet(self.beliefs, observed, trans, self.obs_model)
            predicted = predictor.predict_fleet(self.beliefs, trans, self.obs_model, cfg.predictor.threshold)
        else:
            predicted = observed
        for vr, bits in zip(vehicles, predicted):
            vr.predicted_next = bits

    def _phase_downlink(self, slot: int) -> None:
        cfg = self.cfg
        # each covered vehicle's (id, member count, AN), in vehicle order, and how many each AN serves
        clusters = []
        an_load = dict.fromkeys(self.an_ids, 0)
        for vid, vr in self.vehicles.items():
            cell = vr.cell
            if members := self.cell_members[cell]:
                an_id = self.cell_an[cell]
                clusters.append((vid, len(members), an_id))
                an_load[an_id] += 1
        demand, pool_size = cfg.cluster.downlink_ctu_demand, self.pool.size
        slices = clustering.allocate_slices(clusters, pool_size, demand, self.an_budgets_w)
        wanted = demand * len(clusters)        # runs of min(demand, remaining) CTUs sum to min(wanted, pool_size)
        self.report.slices["allocated_ctus"] += min(wanted, pool_size)
        self.report.slices["unsatisfied"] += max(wanted - pool_size, 0)
        downlink = self.report.downlink
        eco, dldecode = self._family("eco", self.an_ids), self._family("dldecode", self.an_ids)
        dl, payload_bits, slot_s = cfg.downlink, cfg.mac.payload_bits, cfg.slot_duration
        top_load, levels_w = dl.load_buckets - 1, dl.power_levels_w

        for vid, _, an_id in clusters:
            if not slices.ctus[vid]:
                continue                       # no downlink resources this slot
            vr = self.vehicles[vid]
            ar = self.ans[an_id]
            members = self.cell_members[vr.cell]
            pred_bits = vr.predicted
            if pred_bits is None:
                pred_bits = tuple(1 if ap in members else 0 for ap in self.ap_ids)
            cand_aps = list(itertools.compress(self.ap_ids, pred_bits))
            snrs = self.cell_snr[vr.cell]
            state = (min(top_load, an_load[an_id] - 1), int(snrs[members[0]] // dl.snr_bucket_db))

            if ar.learner is not None:
                action = ar.learner.select(state, eco[an_id])
            else:
                action = self.actions[eco[an_id].integers(len(self.actions))]
            rank, p_idx = action
            # Slice power is the hard cap; the learner sees the consequence.
            power_w = min(levels_w[p_idx], slices.power_w[vid])
            delivered = False
            if rank < len(cand_aps) and power_w > 0.0:
                up_snr = snrs[cand_aps[rank]]
                if up_snr >= cfg.snr_threshold_db:
                    dl_snr = up_snr + (10.0 * math.log10(power_w * 1000.0) - cfg.channel.tx_power_dbm)
                    delivered = dldecode[an_id].random() < 1.0 - self.curve.bler(dl_snr, payload_bits)
            energy = power_w * slot_s
            self.report.record_energy(an_id, energy)
            downlink["attempts"] += 1
            downlink["delivered"] += delivered
            downlink["energy_j"] += energy
            self.downlink_power_sum += power_w
            reward = ecorouting.delivery_reward(delivered, power_w, dl.w_delivery, dl.w_power)
            if ar.learner is not None:
                if ar.pending is not None:
                    ps, pa, pr = ar.pending
                    ar.learner.update(ps, pa, pr, state)
                ar.pending = (state, action, reward)

    def _phase_control(self, slot: int) -> None:
        cfg = self.cfg
        if self.topology is None or slot % cfg.control.period_slots != 0:
            return
        demands = [
            control_plane.Demand(vid, self.cell_an[vr.cell], cfg.control.rate_per_vehicle)
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
            views = {c: {f"view_{c}": 1} for c in placement.controllers}
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
            rng = self._family("edge", ["tasks"])["tasks"]
            for vid, vr in self.vehicles.items():
                if rng.random() >= ec.task_arrival_prob:
                    continue
                service = self.catalog[self.service_order[bisect.bisect_left(self.service_cum, rng.random())]]
                an_id = self.cell_an[vr.cell]
                ar = self.ans[an_id]
                ar.request_counts[service.service_id] = ar.request_counts.get(service.service_id, 0) + 1
                task = edge.Task(service.service_id, vid, ec.input_bits, slot)
                decision = edge.decide_offload(
                    task, service, ar.cache, ar.ledger, ar.queued_cycles, ec,
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
        drained = ec.cpu_rate * cfg.slot_duration
        for an_id, ar in self.ans.items():
            ar.queued_cycles = max(0.0, ar.queued_cycles - drained)
            edge.settle_slot(ar.ledger, ar.slot_energy)
            self.report.record_energy(an_id, ar.slot_energy)
            ar.slot_energy = 0.0
        self.report.end_slot()

    def _phase_cipher(self, slot: int) -> None:
        """Count each vehicle's message to its AN as the cipher protocol ends it.

        A message's tag digests the vehicle's fingerprint window (its last
        `window` association vectors) and the AN checks it against its own.
        Equal windows reproduce the tag, so the message verifies and
        round-trips; diverged ones pack to different bytes, so the AN rejects
        it and the session resyncs (the vehicle adopts the AN's window) or,
        past `max_resync`, is compromised. So the agreement count fixes every
        outcome, and no key, counter or digest is computed: none of them
        reaches an output file.
        """
        cfg = self.cfg
        if not cfg.cipher.enabled:
            return
        counts = self.report.cipher
        # every vehicle is present from slot 0, so each window holds this many slots
        window = min(slot + 1, cfg.cipher.window)
        for vr in self.vehicles.values():
            vr.agreed_slots = vr.agreed_slots + 1 if vr.assoc_an == vr.assoc_true else 0
            an_id = self.cell_an[vr.cell]
            if vr.session_an_id != an_id:
                # a hand-over starts a session; its key reaches no output, so none is drawn
                vr.session_an_id = an_id
                vr.session_resyncs = 0
                vr.session_compromised = False
                counts["sessions"] += 1
            if vr.session_compromised:
                continue
            counts["messages"] += 1
            if vr.agreed_slots >= window:
                counts["roundtrip_ok"] += 1
                continue
            vr.session_resyncs += 1
            counts["resyncs"] += 1
            if vr.session_resyncs > cfg.cipher.max_resync:
                vr.session_compromised = True
                counts["compromised"] += 1
            else:
                vr.agreed_slots = window        # the vehicle adopts the AN-side window

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
