(** Workload [set-list]: the paper's traversal-bound list microbenchmark
    (Figure 9), closed loop on the simulated Xeon.

    Registry [lists]/[optik] (ll-optik), 8 virtual threads, 512 initial
    keys drawn uniformly from a range of 1024, 40% attempted updates
    (about 20% effective). No KV, transaction or versioned-hook code
    runs, so a change to those layers must leave this workload alone. *)

module R = Harness.Registry
module Runner = Harness.Runner

let topology = Sim.Topology.xeon
let nthreads = 8
let init_size = 512
let update_pct = 40
let ops = 20_000

let structure () = R.Sim_backend.find_named R.Sim_backend.lists "optik"

type sample = {
  ph : Measure.phases;
  m : Runner.measurement;
  mk : Hooked.marks;
}

(** One run at [seed] through [Runner.run_set_sim]. *)
let run ?(record_obs = false) ~seed () =
  Chaos.fresh_world ();
  let (module S), mk =
    Hooked.hook ~clock:Sim.Sched.now (structure ()) ~init_size ~ops
      ~tid:Sim.Sched.tid
  in
  let w = Runner.uniform_workload ~init_size ~update_pct () in
  let t0 = Measure.cpu () in
  let m =
    Runner.run_set_sim ~topology ~nthreads ~ops ~seed ~record_obs (module S) w
  in
  let ok =
    m.Runner.valid
    && (not (Runner.aborted m))
    && m.Runner.final_size = init_size + Hooked.inserted mk - Hooked.deleted mk
  in
  {
    ph =
      {
        Measure.setup_s = mk.Hooked.setup_end -. t0;
        window_s = Hooked.window_cpu_s mk;
        window_wall_s = m.Runner.host_s;
        check_s = mk.Hooked.check_s;
        oracle_s = mk.Hooked.check_s;
        window_words = Hooked.window_words mk;
        ops = m.Runner.ops;
        failed = (if ok then 0 else m.Runner.ops);
        refused = 0;
        ok;
      };
    m;
    mk;
  }
