(** The repository benchmark.

    {v bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 v}

    One seeded command that runs one workload ([set-list], [kv-zipf] or
    [txn-bank]), checks its oracle in the same run, and prints every
    metric by name and unit. The last line of standard output is the
    result object; the line before it records provenance: seed, core
    count, OCaml version, run counts, latency sample count, and which
    clock each metric is read from.

    With [--trace 0] the workload runs untraced, again and again for
    [--seconds] of host time, and the end-to-end metrics are reported;
    see {!e2e}. With [--trace 1] the per-layer metrics are reported
    instead; see {!Layers}. *)

module Pstats = Harness.Pstats
module Runner = Harness.Runner
open Measure

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Every digit as measured; integers keep a fractional part so the
   value still reads as a measurement. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~workload ~seed ~seconds ~trace r =
  let members l = String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) l) in
  Printf.printf "{\"provenance\": {%s}}\n"
    (members
       ([
          ("workload", Printf.sprintf "%S" workload);
          ("seed", string_of_int seed);
          ("seconds", string_of_int seconds);
          ("trace", string_of_int trace);
          ("nproc", string_of_int (Domain.recommended_domain_count ()));
          ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
          ("os", Printf.sprintf "%S" Sys.os_type);
        ]
       @ r.provenance
       @ [
           ( "clock",
             "{"
             ^ members
                 (List.map (fun x -> (x.name, Printf.sprintf "%S" (clock_name x.clock))) r.metrics)
             ^ "}" );
         ]));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (members
       (List.map
          (fun x ->
            (x.name, Printf.sprintf "{\"value\": %s, \"unit\": %S}" (json_float x.value) x.unit_))
          r.metrics))

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (--trace 0)                                      *)

(* A workload as the end-to-end report drives it: how many runs its
   virtual metrics pool, one untraced run at a seed, and what to read
   from a run. *)
type 'a workload = {
  pool : int;
      (** runs pooled, each at its own seed derived from [--seed]: one
          seed's crash timing or audit tail is too coarse a sample *)
  run : seed:int -> 'a;
  phases : 'a -> phases;
  wall_s : 'a -> float;  (** simulated seconds *)
  served : 'a -> Pstats.t list;  (** latencies of served requests *)
}

(** The end-to-end report. The workload runs until [seconds] of host
    time have passed and at least [2 * w.pool] runs are done, run [i] at
    seed [seed * pool + i mod pool]; a full major collection before each
    run keeps one run's garbage out of the next one's window.
    - Host metrics (set-up, window throughput, check time) are medians,
      over every run after the first [w.pool], of that run's process CPU
      time scaled to the reference host speed by the calibration kernel
      timed right before it (see {!Calib}). The unscaled throughput, on
      the CPU and the monotonic clock, and the kernel's median time are
      provenance.
    - Words allocated per op in the window are a median over every run.
    - Virtual metrics (simulated throughput; latency mean over served
      requests, and p99 with refused requests ranked above every served
      one) pool the first [pool] runs, as does the heap peak, so they
      repeat exactly for a seed.
    - [served_frac] is the share of attempted requests that were served:
      not refused, and not in a run whose oracle failed. *)
let e2e w ~seed ~seconds =
  let t0 = now () and heap = ref nan in
  (* The first [w.pool] runs are kept whole and give the virtual
     metrics and the heap peak; they also warm up. Every later run is
     preceded by the calibration kernel and keeps only its phases, so
     the live heap stays the same size. *)
  let rec go i pool runs =
    if i >= 2 * w.pool && now () -. t0 >= seconds then (List.rev pool, List.rev runs)
    else begin
      Gc.full_major ();
      let k = if i < w.pool then nan else Calib.kernel_s () in
      let s = w.run ~seed:((seed * w.pool) + (i mod w.pool)) in
      if i = w.pool - 1 then heap := heap_mb ();
      if i < w.pool then go (i + 1) (s :: pool) runs
      else go (i + 1) pool ((w.phases s, k) :: runs)
    end
  in
  let pool, runs = go 0 [] [] in
  let phases = List.map w.phases pool @ List.map fst runs in
  let served = List.concat_map w.served pool in
  let refused = sum (fun s -> (w.phases s).refused) pool in
  let lat = pooled ~failed:refused served in
  let mean = (Pstats.summarize served).Pstats.mean in
  let med f = median (List.map f phases) in
  (* A host time at the reference speed. *)
  let unscaled f = median (List.map (fun (p, _) -> f p) runs) in
  let scaled f = median (List.map (fun (p, k) -> f p *. Calib.reference_s /. k) runs) in
  let attempted = sum (fun p -> p.ops) phases in
  let failed = sum (fun (p : phases) -> p.failed) phases in
  let unserved = failed + sum (fun p -> p.refused) phases in
  {
    correct = List.for_all (fun p -> p.ok) phases;
    attempted;
    failed;
    metrics =
      [
        host "setup_s" "s" (scaled (fun p -> p.setup_s));
        host "ops_per_s" "ops/s" (1. /. scaled (fun p -> p.window_s /. float_of_int p.ops));
        host "check_s" "s" (scaled (fun p -> p.check_s));
        count "alloc_words_per_op" "words" (med (fun p -> p.window_words /. float_of_int p.ops));
        count "heap_mb" "MB" !heap;
        count "served_frac" "frac" (1. -. ratio unserved attempted);
        virt "sim_mops" "Mops/s"
          (float_of_int (sum (fun s -> (w.phases s).ops) pool) /. sumf w.wall_s pool /. 1e6);
        virt "lat_mean_cycles" "cycles" mean;
        virt "lat_p99_cycles" "cycles" (float_of_int lat.Pstats.p99);
      ];
    provenance =
      [
        ("runs", string_of_int (List.length phases));
        ("calibrated_runs", string_of_int (List.length runs));
        ("pooled_runs", string_of_int w.pool);
        ("lat_samples", string_of_int lat.Pstats.n);
        ("cpu_ops_per_s", json_float (unscaled (fun p -> float_of_int p.ops /. p.window_s)));
        ("wall_ops_per_s", json_float (unscaled (fun p -> float_of_int p.ops /. p.window_wall_s)));
        ("calib_s", json_float (median (List.map snd runs)));
        ("calib_reference_s", json_float Calib.reference_s);
      ];
  }

let set_list =
  {
    pool = 8;
    run = (fun ~seed -> Set_list.run ~seed ());
    phases = (fun s -> s.Set_list.ph);
    wall_s = (fun s -> s.Set_list.m.Runner.wall_s);
    served =
      (fun s ->
        Hooked.latencies s.Set_list.mk `Search
        @ Hooked.latencies s.Set_list.mk `Update);
  }

let kv_zipf =
  {
    pool = 12;
    run = (fun ~seed -> Kv_zipf.run ~seed ~gap:Kv_zipf.base_gap);
    phases = (fun s -> s.Kv_zipf.ph);
    wall_s = (fun s -> s.Kv_zipf.wall_s);
    served = Kv_zipf.served;
  }

(* The p99 of kv-zipf (crash windows) and txn-bank (the audit tail, near
   a million cycles) sit in heavy tails, so those pool more runs. *)
let txn_bank =
  {
    pool = 12;
    run = (fun ~seed -> Txn_bank.run ~seed);
    phases = (fun s -> s.Txn_bank.ph);
    wall_s = (fun s -> s.Txn_bank.wall_s);
    served = (fun s -> List.concat (Array.to_list s.Txn_bank.lat));
  }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let workloads =
  [
    ("set-list", e2e set_list);
    ("kv-zipf", e2e kv_zipf);
    ("txn-bank", e2e txn_bank);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let e2e =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (known: %s)" !workload
             (String.concat ", " (List.map fst workloads)))
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let r =
    if !trace = 0 then e2e ~seed:!seed ~seconds:(float_of_int !seconds)
    else Layers.report ~workload:!workload ~seed:!seed ~seconds:(float_of_int !seconds)
  in
  if not (List.for_all (fun x -> Float.is_finite x.value) r.metrics) then
    fail "a metric is not a finite number";
  print_result ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace r
