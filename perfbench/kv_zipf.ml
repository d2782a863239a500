(** Workload [kv-zipf]: the sharded KV service, open loop.

    [ht-optik] stores, 4 shards (primary + replica), 8 clients, zipf 0.9
    over 4096 keys, 70% get / 10% scan / 20% put with the default hot-key
    storms and flash-crowd bursts, and a rolling plan of two shard
    crashes. It is the only workload with queueing, routing, retries,
    failover, resync and dual writes; store operations are short, so
    service code and set-up dominate host time.

    {2 Rates and the latency limit}

    Each request is timed from its intended arrival, so queueing counts.
    The end-to-end figures are taken at the base rate, a gap of 12,000
    cycles per client (about 2.8 Mreq per simulated second). The
    offered-load ladder runs gaps of 24,000, 12,000, 6,000 and 3,000
    cycles (about 1.3, 2.8, 5.8 and 11.8 Mreq/s); the sustainable rate
    is the fastest rung whose p99 stays within 50,000 cycles, counting
    sheds and timeouts as over the limit. The service's default gap of
    1,500 cycles is past saturation, so it makes no base rate. Measured
    over seeds 4-7, 11 and 13, one run each, p99 is 5.6-6.2k cycles at
    gap 24,000, 83-118k at 12,000 (the two crash windows delay more than
    1% of requests), 335-367k at 6,000, and at 3,000 more than 1% of
    requests are refused. The limit thus sits
    between the first two rungs with a wide margin on both sides, so the
    verdict does not flip on seed noise, and a change that shortens
    failover moves the sustainable rate up a rung.

    The run is split from outside through the service's own functions:
    [Kv.create] is the set-up, [Kv.client] under
    [Harness.Runner.run_guarded] the window, and [Kv.quiesce] plus
    [Kv.check_oracle] the check. [Kv.run] composes the same steps; the
    traced run goes through it, and the benchmark checks that both give
    identical virtual results. *)

module Pstats = Harness.Pstats
module Runner = Harness.Runner
module Probe = Sim.Sim_rt.Probe

let gaps = [ 24_000; 12_000; 6_000; 3_000 ]
let base_gap = 12_000
let p99_limit = 50_000
let ops = 12_000

let config ~seed ~gap =
  let c = Kv.default_config in
  {
    c with
    Kv.ops;
    seed;
    workload = { c.Kv.workload with Kv.gap };
    plan =
      Some
        (Kv.rolling_plan ~seed ~nshards:c.Kv.nshards ~count:2 ~down_for:60_000
           ~stagger:4_000 ());
  }

type sample = {
  ph : Measure.phases;
  gap : int;
  create_words : float;
  stats : Sim.Sched.stats;
  classes : string array;
  lat : Pstats.t list array;  (** per class, one collector per client *)
  counters : (string * int) list;
  wall_s : float;  (** simulated seconds *)
}

let class_index classes name =
  let rec go i =
    if i >= Array.length classes then invalid_arg ("Kv_zipf: no class " ^ name)
    else if classes.(i) = name then i
    else go (i + 1)
  in
  go 0

let count s name = List.fold_left (fun a c -> a + Pstats.count c) 0 s.lat.(class_index s.classes name)

(** Requests the service refused: timed out or shed. *)
let refusals s = count s "timeout" + count s "shed"

(** Served requests: every get, put and scan collector. *)
let served s =
  List.concat_map (fun c -> s.lat.(class_index s.classes c)) [ "get"; "put"; "scan" ]

(** One untraced run at [seed] and per-client [gap]. *)
let run ~seed ~gap =
  Chaos.fresh_world ();
  let cfg = config ~seed ~gap in
  let w0 = Measure.words () and t0 = Measure.cpu () in
  Dstruct.Sl_common.reset_states ();
  let t = Kv.create cfg in
  let t1 = Measure.cpu () and w1 = Measure.words () in
  Probe.reset_all ();
  let classes = Kv.lat_classes_of ~faulty:true cfg.Kv.workload in
  let lat =
    Array.init cfg.Kv.threads (fun _ ->
        Array.init (Array.length classes) (fun _ -> Pstats.create ()))
  in
  let faults = Option.get cfg.Kv.plan in
  let w2 = Measure.words () and t2 = Measure.cpu () and t2w = Measure.now () in
  let stats, outcome =
    Runner.run_guarded ~faults ~topology:cfg.Kv.topo ~nthreads:cfg.Kv.threads
      ~ops_target:cfg.Kv.ops (fun tid -> Kv.client t lat.(tid) tid)
  in
  let t3 = Measure.cpu () and t3w = Measure.now () and w3 = Measure.words () in
  Kv.quiesce t;
  let t4 = Measure.cpu () in
  let oracle = Kv.check_oracle t in
  let t5 = Measure.cpu () in
  let ok = oracle.Kv.warranted_ok && outcome = Runner.Complete in
  let s =
    {
      ph =
        {
          Measure.setup_s = t1 -. t0;
          window_s = t3 -. t2;
          window_wall_s = t3w -. t2w;
          check_s = t5 -. t3;
          oracle_s = t5 -. t4;
          window_words = w3 -. w2;
          ops = stats.Sim.Sched.ops;
          failed = (if ok then 0 else stats.Sim.Sched.ops);
          refused = 0;
          ok;
        };
      gap;
      create_words = w1 -. w0;
      stats;
      classes;
      lat =
        Array.init (Array.length classes) (fun c ->
            Array.to_list (Array.map (fun l -> l.(c)) lat));
      counters = Probe.dump ();
      wall_s =
        float_of_int stats.Sim.Sched.wall_cycles
        /. (cfg.Kv.topo.Sim.Topology.ghz *. 1e9);
    }
  in
  { s with ph = { s.ph with Measure.refused = refusals s } }

(** The traced run, through [Kv.run]. *)
let run_traced ~seed =
  Chaos.fresh_world ();
  Kv.run ~record_obs:true (config ~seed ~gap:base_gap)
