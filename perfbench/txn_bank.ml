(** Workload [txn-bank]: optimistic multi-object transactions, closed
    loop on the simulated Xeon.

    [Txn.Workload] over ll-optik: 4 objects x 16 accounts, 8 virtual
    threads, 70% transfers and 30% snapshot audits. This is write-heavy
    use of the OPTIK version locks that [set-list] only reads: trylock
    with version at commit, read revalidation and snapshot retries. It
    runs the versioned hooks and the transaction manager.

    The run is split from outside through the workload's own functions:
    [make_objects] plus the manager's [create] are the set-up, [client]
    under [Harness.Runner.run_guarded] the window, and
    [check_serializable] plus structure validation the check.
    [Txn.Workload.run] composes the same steps; the traced run goes
    through it, and the benchmark checks that both give identical
    virtual results. *)

module W = Txn.Workload
module Pstats = Harness.Pstats
module Runner = Harness.Runner
module Probe = Sim.Sim_rt.Probe

let ops = 8_000
let config ~seed = { W.default_config with W.ops; seed }

(* The manager's abort backoff, as [Txn.Workload.run] configures it. *)
let backoff n =
  Sim.Sched.work ((64 lsl min n 6) + (17 * (Sim.Sched.tid () + 1)))

type sample = {
  ph : Measure.phases;
  stats : Sim.Sched.stats;
  lat : Pstats.t list array;  (** per class, one collector per thread *)
  counters : (string * int) list;
  wall_s : float;  (** simulated seconds *)
}

let counter s name = Option.value ~default:0 (List.assoc_opt name s.counters)

(** One untraced run at [seed]. *)
let run ~seed =
  Chaos.fresh_world ();
  let cfg = config ~seed in
  let t0 = Measure.cpu () in
  Dstruct.Sl_common.reset_states ();
  let objs = W.make_objects cfg (W.rep_module cfg.W.rep) in
  let mgr = W.T.create ~policy:W.T.Optimistic ~backoff () in
  let t1 = Measure.cpu () in
  Probe.reset_all ();
  let log = Harness.History.Log.create ~nthreads:cfg.W.threads in
  let lat =
    Array.init cfg.W.threads (fun _ ->
        Array.init (Array.length W.lat_classes) (fun _ -> Pstats.create ()))
  in
  let w2 = Measure.words () and t2 = Measure.cpu () and t2w = Measure.now () in
  let stats, outcome =
    Runner.run_guarded
      ~faults:(Sim.Fault.plan ~seed:cfg.W.seed [])
      ~topology:cfg.W.topo ~nthreads:cfg.W.threads ~ops_target:cfg.W.ops
      (fun tid -> W.client cfg objs mgr log lat.(tid) tid)
  in
  let t3 = Measure.cpu () and t3w = Measure.now () and w3 = Measure.words () in
  let oracle = W.check_serializable cfg (Harness.History.Log.all log) objs in
  let t4 = Measure.cpu () in
  let valid = Array.for_all W.T.obj_validate objs in
  let t5 = Measure.cpu () in
  let counters = Probe.dump () in
  let ops = stats.Sim.Sched.ops in
  let s =
    {
      ph =
        {
          Measure.setup_s = t1 -. t0;
          window_s = t3 -. t2;
          window_wall_s = t3w -. t2w;
          check_s = t5 -. t3;
          oracle_s = t4 -. t3;
          window_words = w3 -. w2;
          ops;
          failed = 0;
          refused = 0;
          ok = oracle.W.ok && valid && outcome = Runner.Complete;
        };
      stats;
      lat =
        Array.init (Array.length W.lat_classes) (fun c ->
            Array.to_list (Array.map (fun l -> l.(c)) lat));
      counters;
      wall_s =
        float_of_int stats.Sim.Sched.wall_cycles
        /. (cfg.W.topo.Sim.Topology.ghz *. 1e9);
    }
  in
  (* Every request is a transfer or an audit; one that never committed
     was refused. *)
  let committed = counter s "txn.commits" + counter s "txn.snapshots" in
  let failed = if s.ph.Measure.ok then 0 else ops in
  { s with ph = { s.ph with Measure.failed; refused = max 0 (ops - committed) } }

(** The traced run, through [Txn.Workload.run]. *)
let run_traced ~seed =
  Chaos.fresh_world ();
  W.run ~record_obs:true (config ~seed)
