(** The per-layer report ([--trace 1]).

    Each simulator workload runs three times at the seed: untraced,
    traced ([~record_obs:true], through the library's own driver), and
    untraced again. The traced run must reproduce the first one's
    simulated counts, simulated time, latency summaries and probe
    counters exactly — recording is cycle-free — and the benchmark
    checks that from outside. Attribution ([Obs.Attrib.analyze]) of the
    traced run gives the phase shares; host costs come from the faster
    untraced run, since the first run of a process also pays for
    growing the heap.

    Every [--trace 1] run measures all three workloads and the layer
    ladder, so each per-layer metric has a value whichever workload is
    named: a metric the named workload defines comes from it, any other
    from the workload that exercises that layer. *)

module Pstats = Harness.Pstats
module Runner = Harness.Runner
open Measure

(* ------------------------------------------------------------------ *)
(* Cycle-free tracing check                                            *)

(* Virtual results that tracing must not change. The KV service records
   resync latencies service-side, outside the per-client collectors the
   benchmark owns, so that class is left out. *)
type signature = {
  g_counts : int list;
  g_wall_s : float;
  g_lat : (string * Pstats.summary) list;
  g_counters : (string * int) list;
}

let signature ~(stats : Sim.Sched.stats) ~wall_s ~lat ~counters =
  let open Sim.Sched in
  {
    g_counts =
      [ stats.ops; stats.reads; stats.writes; stats.cas; stats.cas_failed; stats.faa; stats.events ];
    g_wall_s = wall_s;
    g_lat = List.filter (fun (c, _) -> c <> "resync") lat;
    g_counters = counters;
  }

let stats_of (x : Runner.measurement) =
  {
    Sim.Sched.wall_cycles = 0;
    ops = x.Runner.ops;
    reads = x.Runner.reads;
    writes = x.Runner.writes;
    cas = x.Runner.cas;
    cas_failed = x.Runner.cas_failed;
    faa = x.Runner.faa;
    events = x.Runner.events;
  }

let signature_of (x : Runner.measurement) =
  signature ~stats:(stats_of x) ~wall_s:x.Runner.wall_s
    ~lat:(Array.to_list (Array.map2 (fun c s -> (c, s)) x.Runner.lat_classes x.Runner.lat))
    ~counters:x.Runner.counters

let summaries classes (lat : Pstats.t list array) =
  Array.to_list (Array.mapi (fun i c -> (c, Pstats.summarize lat.(i))) classes)

(* ------------------------------------------------------------------ *)
(* Metric helpers                                                      *)

let per_op_ns (p : phases) = p.window_s *. 1e9 /. float_of_int (max 1 p.ops)
let per_op_words (p : phases) = p.window_words /. float_of_int (max 1 p.ops)
let counter counters name = Option.value ~default:0 (List.assoc_opt name counters)

(* Engine, lock and structure metrics every simulator workload defines,
   from an untraced run. All three workloads store their data in OPTIK
   linked lists, whose probes carry the [ll-optik] prefix. *)
let engine_metrics ~(stats : Sim.Sched.stats) ~counters ~(ph : phases) =
  let open Sim.Sched in
  let accesses = stats.reads + stats.writes + stats.cas + stats.faa in
  let per_op v = ratio v stats.ops in
  let structure pred =
    List.fold_left
      (fun a (name, v) ->
        match Obs.Report.split_counter name with
        | Some ("ll-optik", metric) when pred metric -> a + v
        | _ -> a)
      0 counters
  in
  [
    count "sim.accesses_per_op" "count" (per_op accesses);
    count "sim.events_per_op" "count" (per_op stats.events);
    host "sim.ns_per_access" "ns" (ph.window_s *. 1e9 /. float_of_int (max 1 accesses));
    count "sim.words_per_access" "words" (ph.window_words /. float_of_int (max 1 accesses));
    count "sim.cas_fail_frac" "frac" (ratio stats.cas_failed stats.cas);
    count "optik.trylock_fail_per_op" "count" (per_op (counter counters "optik.trylock-fail"));
    count "dstruct.restarts_per_op" "count" (per_op (structure Obs.Report.restart_metric));
    count "dstruct.vfail_per_op" "count" (per_op (structure Obs.Report.vfail_metric));
    host "harness.oracle_s" "s" ph.oracle_s;
  ]

(* Each phase's share of all request time in a traced run. *)
let shares prefix trace phases =
  let t0 = cpu () in
  let a = Obs.Attrib.analyze (Option.get trace) in
  let attrib_s = cpu () -. t0 in
  let reqs = a.Obs.Attrib.reqs in
  let total = List.fold_left (fun s r -> s + r.Obs.Attrib.a_total) 0 reqs in
  let share (phase, name) =
    let c =
      List.fold_left
        (fun s r -> s + Option.value ~default:0 (List.assoc_opt phase r.Obs.Attrib.a_phases))
        0 reqs
    in
    virt (prefix ^ "." ^ name ^ "_share") "frac" (ratio c total)
  in
  host "obs.attrib_s" "s" attrib_s :: List.map share phases

let lat_of (x : Runner.measurement) cls =
  let rec go i =
    if i >= Array.length x.Runner.lat_classes then Pstats.empty_summary
    else if x.Runner.lat_classes.(i) = cls then x.Runner.lat.(i)
    else go (i + 1)
  in
  go 0

let cycles name v = virt name "cycles" (float_of_int v)

(* [traced] is the traced window on the monotonic clock: the library's
   drivers time their runs on it. *)
let overhead ~traced ~(untraced : phases) =
  wall "obs.trace_overhead_frac" "frac" ((traced /. untraced.window_wall_s) -. 1.)

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)

(* One workload's contribution: its metrics, whether every oracle and
   the tracing check held, the operations its runs attempted and failed,
   and its untraced window (a service rung of the ladder). *)
type instance = {
  i_metrics : metric list;
  i_ok : bool;
  i_attempted : int;
  i_failed : int;
  i_window : phases;
}

(* The traced library run counts as failed if its oracle failed. *)
let traced_failed ok ops = if ok then 0 else ops

let set_list ~seed =
  let u1 = Set_list.run ~seed () in
  let t = Set_list.run ~record_obs:true ~seed () in
  let u2 = Set_list.run ~seed () in
  let u = if u2.Set_list.ph.window_s < u1.Set_list.ph.window_s then u2 else u1 in
  let runs = [ u1; t; u2 ] in
  let search = pooled (Hooked.latencies u.Set_list.mk `Search) in
  let update = pooled (Hooked.latencies u.Set_list.mk `Update) in
  {
    i_metrics =
      engine_metrics ~stats:(stats_of u.Set_list.m) ~counters:u.Set_list.m.Runner.counters
        ~ph:u.Set_list.ph
      @ [
          cycles "dstruct.search_p50_cycles" search.Pstats.p50;
          cycles "dstruct.update_p50_cycles" update.Pstats.p50;
          cycles "dstruct.update_p99_cycles" update.Pstats.p99;
          overhead ~traced:t.Set_list.ph.window_wall_s ~untraced:u.Set_list.ph;
        ];
    i_ok =
      signature_of u1.Set_list.m = signature_of t.Set_list.m
      && List.for_all (fun s -> s.Set_list.ph.ok) runs;
    i_attempted = List.fold_left (fun a s -> a + s.Set_list.ph.ops) 0 runs;
    i_failed = List.fold_left (fun a s -> a + s.Set_list.ph.failed) 0 runs;
    i_window = u.Set_list.ph;
  }

let kv_zipf ~seed =
  let ladder = List.map (fun gap -> Kv_zipf.run ~seed ~gap) Kv_zipf.gaps in
  let u1 = List.find (fun s -> s.Kv_zipf.gap = Kv_zipf.base_gap) ladder in
  let tm, tr = Kv_zipf.run_traced ~seed in
  let u2 = Kv_zipf.run ~seed ~gap:Kv_zipf.base_gap in
  let same =
    signature ~stats:u1.Kv_zipf.stats ~wall_s:u1.Kv_zipf.wall_s
      ~lat:(summaries u1.Kv_zipf.classes u1.Kv_zipf.lat)
      ~counters:u1.Kv_zipf.counters
    = signature_of tm
  in
  let traced_ok = tr.Kv.res_oracle.Kv.warranted_ok in
  (* The sustainable rate: the fastest rung whose p99, with refused
     requests ranked over the limit, stays within it. *)
  let slo =
    List.fold_left
      (fun best s ->
        let p99 = (pooled ~failed:s.Kv_zipf.ph.refused (Kv_zipf.served s)).Pstats.p99 in
        let rate = float_of_int s.Kv_zipf.ph.ops /. s.Kv_zipf.wall_s /. 1e6 in
        if p99 <= Kv_zipf.p99_limit then Float.max best rate else best)
      0. ladder
  in
  let per_req name = ratio (counter tm.Runner.counters name) tm.Runner.ops in
  let keys_copied =
    List.fold_left
      (fun a (name, v) ->
        match Obs.Report.split_counter name with
        | Some (_, "resync-keys-copied") -> a + v
        | _ -> a)
      0 tm.Runner.counters
  in
  let u = if u2.Kv_zipf.ph.window_s < u1.Kv_zipf.ph.window_s then u2 else u1 in
  let untraced = u2 :: ladder in
  {
    i_metrics =
      engine_metrics ~stats:u.Kv_zipf.stats ~counters:u.Kv_zipf.counters ~ph:u.Kv_zipf.ph
      @ shares "kv" tr.Kv.res_trace
          [ ("queue", "queue"); ("route", "route"); ("store", "store"); ("backoff", "backoff");
            ("resync", "resync"); ("dual-write", "dual_write") ]
      @ [
          count "kv.create_words" "words" u.Kv_zipf.create_words;
          cycles "kv.get_p99_cycles" (lat_of tm "get").Pstats.p99;
          cycles "kv.put_p99_cycles" (lat_of tm "put").Pstats.p99;
          cycles "kv.scan_p99_cycles" (lat_of tm "scan").Pstats.p99;
          count "kv.retries_per_req" "count" (per_req "kv.retries");
          count "kv.failovers_per_req" "count" (per_req "kv.failovers");
          count "kv.timeouts_frac" "frac" (per_req "kv.timeouts");
          count "kv.sheds_frac" "frac" (per_req "kv.sheds");
          cycles "kv.resync_p50_cycles" (lat_of tm "resync").Pstats.p50;
          count "kv.resync_keys_copied" "count" (float_of_int keys_copied);
          virt "kv.slo_rate_mreqs" "Mreq/s" slo;
          overhead ~traced:tm.Runner.host_s ~untraced:u.Kv_zipf.ph;
        ];
    i_ok = same && traced_ok && List.for_all (fun s -> s.Kv_zipf.ph.ok) untraced;
    i_attempted = tm.Runner.ops + List.fold_left (fun a s -> a + s.Kv_zipf.ph.ops) 0 untraced;
    i_failed =
      traced_failed traced_ok tm.Runner.ops
      + List.fold_left (fun a s -> a + s.Kv_zipf.ph.failed) 0 untraced;
    i_window = u.Kv_zipf.ph;
  }

let txn_bank ~seed =
  let module W = Txn.Workload in
  let u1 = Txn_bank.run ~seed in
  let tm, tr = Txn_bank.run_traced ~seed in
  let u2 = Txn_bank.run ~seed in
  let same =
    signature ~stats:u1.Txn_bank.stats ~wall_s:u1.Txn_bank.wall_s
      ~lat:(summaries W.lat_classes u1.Txn_bank.lat)
      ~counters:u1.Txn_bank.counters
    = signature_of tm
  in
  let traced_ok = tr.W.res_oracle.W.ok && tm.Runner.valid in
  let per_commit v = ratio v tr.W.res_commits in
  let u = if u2.Txn_bank.ph.window_s < u1.Txn_bank.ph.window_s then u2 else u1 in
  let untraced = [ u1; u2 ] in
  {
    i_metrics =
      engine_metrics ~stats:u.Txn_bank.stats ~counters:u.Txn_bank.counters ~ph:u.Txn_bank.ph
      @ shares "txn" tr.W.res_trace
          [ ("acquire", "acquire"); ("validate", "validate"); ("commit", "commit");
            ("backoff", "backoff"); ("other", "other") ]
      @ [
          count "txn.aborts_per_commit" "count" (per_commit tr.W.res_aborts);
          count "txn.vfail_lock_per_commit" "count" (per_commit tr.W.res_vfail_lock);
          count "txn.vfail_read_per_commit" "count" (per_commit tr.W.res_vfail_read);
          count "txn.snapshot_retries_per_audit" "count"
            (ratio tr.W.res_snap_retries tr.W.res_snapshots);
          cycles "txn.transfer_p50_cycles" (lat_of tm "transfer").Pstats.p50;
          cycles "txn.transfer_p99_cycles" (lat_of tm "transfer").Pstats.p99;
          cycles "txn.audit_p50_cycles" (lat_of tm "audit").Pstats.p50;
          cycles "txn.audit_p99_cycles" (lat_of tm "audit").Pstats.p99;
          overhead ~traced:tm.Runner.host_s ~untraced:u.Txn_bank.ph;
        ];
    i_ok = same && traced_ok && List.for_all (fun s -> s.Txn_bank.ph.ok) untraced;
    i_attempted = tm.Runner.ops + List.fold_left (fun a s -> a + s.Txn_bank.ph.ops) 0 untraced;
    i_failed =
      traced_failed traced_ok tm.Runner.ops
      + List.fold_left (fun a s -> a + s.Txn_bank.ph.failed) 0 untraced;
    i_window = u.Txn_bank.ph;
  }

(* ------------------------------------------------------------------ *)
(* The layer ladder                                                    *)

(* Rungs 1-3 and the native rung, interleaved at least three times and
   until the host clock reaches [until]. Host costs are medians; each
   layer's cost is its rung minus the rung below. The service rungs are
   the KV and transaction workloads' own untraced windows. *)
let ladder ~seed ~until ~(kv : phases) ~(txn : phases) =
  let rec go n acc =
    if n >= 3 && now () >= until then acc
    else begin
      Gc.full_major ();
      let rung = [| Ladder.engine ~seed; Ladder.bare ~seed; Ladder.versioned ~seed; Ladder.native ~seed |] in
      go (n + 1) (rung :: acc)
    end
  in
  let runs = go 0 [] in
  let med i f = median (List.map (fun r -> f r.(i)) runs) in
  let ns i = med i Ladder.ns_per_op and words i = med i Ladder.words_per_op in
  let engine = 0 and bare = 1 and versioned = 2 and native = 3 in
  let metrics =
    [
      host "sim.faa_ns_per_op" "ns" (ns engine);
      host "dstruct.ns_per_op" "ns" (ns bare -. ns engine);
      count "dstruct.words_per_op" "words" (words bare -. words engine);
      host "versioned.ns_per_op" "ns" (ns versioned -. ns bare);
      count "versioned.words_per_op" "words" (words versioned -. words bare);
      host "kv.ns_per_req" "ns" (per_op_ns kv -. ns bare);
      count "kv.words_per_req" "words" (per_op_words kv -. words bare);
      host "txn.ns_per_op" "ns" (per_op_ns txn -. ns versioned);
      count "txn.words_per_op" "words" (per_op_words txn -. words versioned);
      wall "native.ns_per_op" "ns" (ns native);
      count "native.words_per_op" "words" (words native);
    ]
  in
  let all = List.concat_map Array.to_list runs in
  ( {
      i_metrics = metrics;
      i_ok = List.for_all (fun r -> r.Ladder.ok) all;
      i_attempted = List.fold_left (fun a r -> a + r.Ladder.ops) 0 all;
      i_failed = List.fold_left (fun a r -> a + if r.Ladder.ok then 0 else r.Ladder.ops) 0 all;
      i_window = kv;
    },
    List.length runs )

(** The report for [--trace 1] on [workload]; the ladder fills the time
    left until [seconds] have passed. *)
let report ~workload ~seed ~seconds =
  let until = now () +. seconds in
  let set = set_list ~seed in
  let kv = kv_zipf ~seed in
  let txn = txn_bank ~seed in
  let lad, lad_reps = ladder ~seed ~until ~kv:kv.i_window ~txn:txn.i_window in
  let own, others =
    match workload with
    | "set-list" -> (set, [ kv; txn ])
    | "kv-zipf" -> (kv, [ txn; set ])
    | _ -> (txn, [ kv; set ])
  in
  let sources = List.map (fun i -> i.i_metrics) (own :: others @ [ lad ]) in
  let names = List.sort_uniq compare (List.concat_map (List.map (fun x -> x.name)) sources) in
  let pick name = Option.get (List.find_map (List.find_opt (fun x -> x.name = name)) sources) in
  let all = [ set; kv; txn; lad ] in
  {
    correct = List.for_all (fun i -> i.i_ok) all;
    attempted = List.fold_left (fun a i -> a + i.i_attempted) 0 all;
    failed = List.fold_left (fun a i -> a + i.i_failed) 0 all;
    metrics = List.map pick names;
    provenance = [ ("ladder_reps", string_of_int lad_reps) ];
  }
