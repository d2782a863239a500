(** Chaos engine implementation. See the interface for the model; the
    determinism argument lives in DESIGN.md ("Chaos engine").

    Everything a trial's outcome depends on is either in the trial string
    (structure, topology, workload knobs, perturbation knobs, fault plan)
    or a pure function of it (per-thread workload rngs, the simulator's
    schedule, the fault hit counts). The only process-global state the
    simulator keeps — skip-list level rngs, the noise amplitude — is
    reset or save/restored around each trial. *)

module R = Harness.Registry
module Rng = Harness.Rng
module Fault = Sim.Fault
module Sched = Sim.Sched
module Qsbr = Mem.Qsbr.Make (Sim.Sim_rt)

(* ------------------------------------------------------------------ *)
(* Trial families and the one driver over them                        *)

type failure = { f_oracle : string; f_detail : string }
type verdict = { v_failures : failure list; v_line : string }

type 'a family = {
  name : string;
  command : string;
  budget : int;
  to_string : 'a -> string;
  of_string : string -> 'a;
  gen : Rng.t -> 'a;
  candidates : 'a -> 'a list;
  check : 'a -> verdict;
}

type any_family = Family : 'a family -> any_family

let fails fam tr = (fam.check tr).v_failures <> []

(* Greedy: take the first candidate that still fails, restart from it,
   stop at a fixpoint or after [budget] runs (the initial check counts). *)
let shrink fam tr0 =
  if not (fails fam tr0) then tr0
  else begin
    let runs = ref 1 in
    let cur = ref tr0 in
    let improved = ref true in
    while !improved && !runs < fam.budget do
      improved := false;
      (try
         List.iter
           (fun c ->
             if !runs < fam.budget then begin
               incr runs;
               if fails fam c then begin
                 cur := c;
                 improved := true;
                 raise Exit
               end
             end)
           (fam.candidates !cur)
       with Exit -> ())
    done;
    !cur
  end

let report_failures ppf fs =
  List.iter
    (fun f -> Format.fprintf ppf "           oracle %-16s %s@." f.f_oracle f.f_detail)
    fs

let print_summary ppf fam ~failed ~runs ~seed =
  Format.fprintf ppf "%s: %d/%d trials failed (seed %d)@." fam.name failed runs
    seed

let fuzz ?(offset = 0) ?(summary = true) fam ~runs ~seed ppf =
  let failed = ref 0 in
  for i = offset to offset + runs - 1 do
    let tr = fam.gen (Rng.create (seed + (i * 1_000_003))) in
    match (fam.check tr).v_failures with
    | [] -> Format.fprintf ppf "trial %4d ok   %s@." i (fam.to_string tr)
    | fs ->
        incr failed;
        Format.fprintf ppf "trial %4d FAIL %s@." i (fam.to_string tr);
        report_failures ppf fs;
        let small = fam.to_string (shrink fam tr) in
        Format.fprintf ppf "           shrunk to %s@." small;
        Format.fprintf ppf "           repro: optik_bench %s --replay '%s'@."
          fam.command small
  done;
  if summary then print_summary ppf fam ~failed:!failed ~runs ~seed;
  !failed

let replay fam s ppf =
  let tr = fam.of_string s in
  let v = fam.check tr in
  Format.fprintf ppf "replay %s@." (fam.to_string tr);
  Format.fprintf ppf "%s@." v.v_line;
  (match v.v_failures with
  | [] -> Format.fprintf ppf "verdict: PASS@."
  | fs ->
      report_failures ppf fs;
      Format.fprintf ppf "verdict: FAIL (%d oracle failures)@."
        (List.length fs));
  List.length v.v_failures

(* Restore every piece of the calling domain's simulator world to
   process-pristine state: the scheduler (counters, packed-line table,
   fault hook, noise, heap), the fault engine, the observability journal,
   the probe cells, and every id source trials allocate from (packing
   groups, lock handles, transaction oids, skip-list level generators).
   After this, a trial behaves exactly as it would in a fresh process —
   the reset the fleet runner applies before each task so batch output
   is byte-identical to serial output. *)
let fresh_world () =
  Sim.Sched.reset_world ();
  Sim.Fault.reset_world ();
  Obs.Journal.reset_world ();
  Sim.Sim_rt.Probe.reset_world ();
  Rt.Group.reset ();
  Locks.Handle.reset_ids ();
  Txn.Workload.T.reset_oids ();
  Dstruct.Sl_common.reset_states ()

(* One task per contiguous batch of trial indices. Each task renders into
   its own buffer with absolute trial indices, so concatenating the
   buffers in task order reproduces the serial fuzzer's output byte for
   byte, whatever the jobs/batch split was. *)
let batch_tasks fam ~trials ~batch ~seed =
  List.init
    ((trials + batch - 1) / batch)
    (fun b ->
      let offset = b * batch in
      let runs = min batch (trials - offset) in
      Harness.Fleet.task
        ~label:(Printf.sprintf "%s[%d..%d]" fam.name offset (offset + runs - 1))
        (fun () ->
          let buf = Buffer.create 4096 in
          let ppf = Format.formatter_of_buffer buf in
          let failed = fuzz ~offset ~summary:false fam ~runs ~seed ppf in
          Format.pp_print_flush ppf ();
          (failed, Buffer.contents buf)))

let fleet fam ~jobs ~trials ~batch ~seed ppf =
  let results =
    Harness.Fleet.map ~jobs ~reset:fresh_world
      (batch_tasks fam ~trials ~batch ~seed)
  in
  List.iter (fun (_, out) -> Format.pp_print_string ppf out) results;
  let failed = List.fold_left (fun a (f, _) -> a + f) 0 results in
  print_summary ppf fam ~failed ~runs:trials ~seed;
  failed

(* ------------------------------------------------------------------ *)
(* The trial-string grammar every family shares                        *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let topo_names = [| "u2"; "u4"; "xeon"; "opteron" |]

let topology_of_name = function
  | "u2" -> Sim.Topology.uniform ~n:2 ()
  | "u4" -> Sim.Topology.uniform ~n:4 ()
  | "xeon" -> Sim.Topology.xeon
  | "opteron" -> Sim.Topology.opteron
  | s -> invalid_arg (Printf.sprintf "Chaos: unknown topology %S" s)

let parse_error fmt = Printf.ksprintf invalid_arg ("Chaos.of_string: " ^^ fmt)

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> parse_error "bad %s %S" what s

(* A [name@topo] head (topology checked), then space-separated tokens
   [cVALUE], returned as (letter, value) pairs; a bare letter such as
   txn's [!] has value "". *)
let tokenize what s =
  match
    String.split_on_char ' ' (String.trim s) |> List.filter (fun t -> t <> "")
  with
  | [] -> parse_error "empty %s" what
  | head :: toks ->
      let name, topo =
        match String.rindex_opt head '@' with
        | Some i ->
            ( String.sub head 0 i,
              String.sub head (i + 1) (String.length head - i - 1) )
        | None -> parse_error "missing @topology in %S" head
      in
      ignore (topology_of_name topo : Sim.Topology.t);
      ( name,
        topo,
        List.map (fun t -> (t.[0], String.sub t 1 (String.length t - 1))) toks )

let bad_token c v = parse_error "bad token %S" (String.make 1 c ^ v)

(* Reject the first violated bound, naming it. *)
let bounded tr checks =
  List.iter (fun (ok, msg) -> if not ok then parse_error "%s" msg) checks;
  tr

(* The [kind/REP] head of a service trial. *)
let rep_of kind known name =
  let prefix = kind ^ "/" in
  if not (has_prefix prefix name) then
    parse_error "%s trial must start with %s<rep>, got %S" kind prefix name;
  let n = String.length prefix in
  let rep = String.sub name n (String.length name - n) in
  if not (List.mem rep known) then
    parse_error "unknown %s rep %S (known: %s)" kind rep
      (String.concat ", " known);
  rep

(* ------------------------------------------------------------------ *)
(* Generation and shrinking helpers                                    *)

let pick rng a = a.(Rng.below rng (Array.length a))

let points =
  [|
    Rt.Rt_intf.Before_cas;
    Rt.Rt_intf.After_cas;
    Rt.Rt_intf.Critical_enter;
    Rt.Rt_intf.Critical_exit;
    Rt.Rt_intf.Lock_wait;
    Rt.Rt_intf.Restart;
    Rt.Rt_intf.Op_boundary;
  |]

let replace_nth i x l = List.mapi (fun j y -> if j = i then x else y) l

(* Fault-plan reductions shared by the structure and KV shrinkers: the
   plan with each spec dropped, then, per halver in turn, with each spec
   it applies to halved. *)
let plan_candidates plan halvers =
  let specs = plan.Fault.specs in
  let with_specs sp = { plan with Fault.specs = sp } in
  List.mapi
    (fun i _ -> with_specs (List.filteri (fun j _ -> j <> i) specs))
    specs
  @ List.concat_map
      (fun halve ->
        List.concat
          (List.mapi
             (fun i sp ->
               match halve sp with
               | Some sp' -> [ with_specs (replace_nth i sp' specs) ]
               | None -> [])
             specs))
      halvers

(* ------------------------------------------------------------------ *)
(* Structure trials                                                    *)

type kind = Lock_free | Blocking

type target =
  | Set of (module R.SET_OPS)
  | Queue of (module R.QUEUE_OPS)
  | Stack of (module R.STACK_OPS)

type entry = { e_name : string; e_kind : kind; e_target : target }

(* One representative per family; names are stable (they appear in repro
   strings). Kind follows §2 of the paper: Harris/Fraser/Treiber/MS-LF
   and the elimination stack are lock-free, everything validate-and-lock
   or global-lock is blocking. *)
let default_entries =
  let module B = R.Sim_backend in
  [
    { e_name = "list/harris"; e_kind = Lock_free; e_target = Set B.ll_harris };
    { e_name = "list/optik"; e_kind = Blocking; e_target = Set B.ll_optik };
    { e_name = "list/lazy"; e_kind = Blocking; e_target = Set B.ll_lazy_ };
    { e_name = "list/optik-gl"; e_kind = Blocking; e_target = Set B.ll_optik_gl };
    { e_name = "ht/harris"; e_kind = Lock_free; e_target = Set B.ht_harris };
    { e_name = "ht/optik"; e_kind = Blocking; e_target = Set B.ht_optik };
    { e_name = "sl/fraser"; e_kind = Lock_free; e_target = Set B.sl_fraser };
    { e_name = "sl/herlihy"; e_kind = Blocking; e_target = Set B.sl_herlihy };
    { e_name = "map/optik"; e_kind = Blocking; e_target = Set B.map_optik };
    { e_name = "bst/optik"; e_kind = Blocking; e_target = Set B.bst_optik };
    { e_name = "queue/ms-lf"; e_kind = Lock_free; e_target = Queue B.q_ms_lf };
    { e_name = "queue/ms-lb"; e_kind = Blocking; e_target = Queue B.q_ms_lb };
    { e_name = "queue/optik1"; e_kind = Blocking; e_target = Queue B.q_optik1 };
    {
      e_name = "stack/treiber";
      e_kind = Lock_free;
      e_target = Stack B.stack_treiber;
    };
    { e_name = "stack/optik"; e_kind = Blocking; e_target = Stack B.stack_optik };
    {
      e_name = "stack/elim";
      e_kind = Lock_free;
      e_target = Stack B.stack_elimination;
    };
  ]

let quick_entries =
  List.filter
    (fun e -> not (has_prefix "sl/" e.e_name || has_prefix "bst/" e.e_name))
    default_entries

let find_entry entries name =
  match List.find_opt (fun e -> String.equal e.e_name name) entries with
  | Some e -> e
  | None ->
      invalid_arg (Printf.sprintf "Chaos: unknown structure %S" name)

type trial = {
  t_entry : entry;
  t_topo : string;
  t_threads : int;
  t_ops : int;
  t_keys : int;
  t_quantum : int;
  t_read_slack : int;
  t_noise_bits : int;
  t_wseed : int;
  t_plan : Fault.plan;
}

let to_string tr =
  Printf.sprintf "%s@%s t%d o%d k%d q%d r%d n%d w%d f%s" tr.t_entry.e_name
    tr.t_topo tr.t_threads tr.t_ops tr.t_keys tr.t_quantum tr.t_read_slack
    tr.t_noise_bits tr.t_wseed
    (Fault.to_string tr.t_plan)

let of_string entries s =
  let name, topo, toks = tokenize "trial" s in
  let tr =
    List.fold_left
      (fun tr (c, v) ->
        let n what = parse_int what v in
        match c with
        | 't' -> { tr with t_threads = n "threads" }
        | 'o' -> { tr with t_ops = n "ops" }
        | 'k' -> { tr with t_keys = n "keys" }
        | 'q' -> { tr with t_quantum = n "quantum" }
        | 'r' -> { tr with t_read_slack = n "read-slack" }
        | 'n' -> { tr with t_noise_bits = n "noise-bits" }
        | 'w' -> { tr with t_wseed = n "workload seed" }
        | 'f' -> { tr with t_plan = Fault.of_string v }
        | _ -> bad_token c v)
      {
        t_entry = find_entry entries name;
        t_topo = topo;
        t_threads = 2;
        t_ops = 1;
        t_keys = 2;
        t_quantum = Sched.default_quantum;
        t_read_slack = 0;
        t_noise_bits = 62;
        t_wseed = 0;
        t_plan = { Fault.seed = 0; specs = [] };
      }
      toks
  in
  bounded tr
    [
      ( tr.t_threads >= 1 && tr.t_ops >= 1 && tr.t_keys >= 1,
        "threads/ops/keys must be positive" );
      (tr.t_quantum >= 1, "quantum must be >= 1");
      (tr.t_read_slack >= 0, "read slack must be >= 0");
      ( tr.t_noise_bits >= 0 && tr.t_noise_bits <= 62,
        "noise bits must be in 0..62" );
    ]

type outcome = {
  o_completed : bool;
  o_crashed : int list;
  o_failures : failure list;
}

(* Aggressive watchdog: chaos workloads are a handful of operations, so
   anything that spins a million cycles without completing one is stuck. *)
let watchdog = { Sched.check_events = 5_000; starve_cycles = 1_000_000 }
let trial_max_events = 2_000_000

(* A crashed lock holder can leave the sole surviving thread spinning in
   a pure-inline loop: with the event heap empty the simulator inlines
   every probe, so neither the watchdog nor the event budget ever runs.
   A modest inline-op budget turns that into a prompt Starved verdict. *)
let trial_max_inline_ops = 5_000_000

let exec_trial tr body =
  Harness.Runner.run_guarded ~faults:tr.t_plan ~watchdog
    ~max_events:trial_max_events ~max_inline_ops:trial_max_inline_ops
    ~quantum:tr.t_quantum
    ~read_slack:tr.t_read_slack
    ~topology:(topology_of_name tr.t_topo)
    ~nthreads:tr.t_threads ~ops_target:0 body

(* Which threads did the plan actually crash, and where? Read from the
   fault log after the run (it survives plan removal). *)
let crash_events () =
  List.filter_map
    (fun (e : Fault.event) ->
      match e.e_spec.f_action with
      | Fault.Crash -> Some (e.e_tid, e.e_spec.f_point)
      | Fault.Stall _ | Fault.Storm _ | Fault.Shard_crash _
      | Fault.Shard_recover _ | Fault.Resync_crash _ ->
          None)
    (Fault.events ())

(* Oracle (b): liveness by family. Lock-free structures must survive any
   crash — the whole point of the family is that a dead thread cannot
   block the others. A blocking structure only promises progress under
   crash-free execution: a thread that dies anywhere inside an operation
   may sit mid-lock-protocol (holding a lock, or parked in an MCS wait
   queue without holding anything yet), and everyone queued behind it
   legitimately starves. A crash at an operation boundary is outside any
   lock protocol, so it keeps the warranty, as do stalls and storms —
   those runs must still terminate. *)
let crash_mid_op crash_pts =
  List.exists (fun (_, p) -> p <> Rt.Rt_intf.Op_boundary) crash_pts

let liveness_failures kind outcome crash_pts =
  match outcome with
  | Harness.Runner.Complete -> []
  | Harness.Runner.Aborted _ when kind = Blocking && crash_mid_op crash_pts ->
      []
  | Harness.Runner.Aborted r ->
      [
        {
          f_oracle = "liveness";
          f_detail =
            Format.asprintf "%a — %s" Sched.pp_verdict r.Sched.r_verdict
              r.Sched.r_reason;
        };
      ]

(* Oracle (c), QSBR half: after telling the reclaimer about crashed
   threads and flushing, nothing may be lost or double-counted. *)
let qsbr_failures q crashed =
  List.iter (fun t -> Qsbr.declare_dead q t) crashed;
  Qsbr.flush q;
  let s = Qsbr.stats q in
  if s.Qsbr.retired = s.Qsbr.freed + s.Qsbr.pending then []
  else
    [
      {
        f_oracle = "qsbr";
        f_detail =
          Printf.sprintf "retired=%d <> freed=%d + pending=%d" s.Qsbr.retired
            s.Qsbr.freed s.Qsbr.pending;
      };
    ]

let count f l = List.length (List.filter f l)

(* Crashing a blocking structure inside an operation voids its state
   warranty: the crashed thread may hold locks over a half-done update,
   so only liveness and QSBR accounting remain checkable. A crash at an
   operation boundary (between ops) holds no locks and keeps the
   warranty. Lock-free structures promise crash-consistency everywhere. *)
let state_unwarranted kind crash_pts = kind = Blocking && crash_mid_op crash_pts

(* What the one structure runner needs to know about a target. [create]
   builds and prefills it, yielding the spec's initial state and size;
   [draw] takes one op from the thread's rng ([v] is the value to add);
   [apply] runs it, returning any value it unlinked for QSBR retirement;
   [moves] says how an op moves the size: +1 or -1 for a completed op
   that did, or a pending one (output [None]) that might have. *)
module type TARGET = sig
  module Sp : Lincheck.SPEC

  type t

  val create : keys:int -> wseed:int -> t * Sp.state * int
  val draw : Rng.t -> keys:int -> v:int -> Sp.input
  val apply : t -> Sp.input -> Sp.output * int option
  val moves : Sp.input -> Sp.output option -> int
  val size : t -> int
  val validate : t -> bool
end

let set_target (module S : R.SET_OPS) : (module TARGET) =
  (module struct
    module Sp = Lincheck.Set_spec

    type t = S.t

    let create ~keys ~wseed =
      (* Capacity far above the key range so array maps and hash tables
         never refuse an insert the sequential spec would accept. *)
      let t = S.create ~capacity:((4 * keys) + 16) () in
      let init = ref Sp.M.empty in
      let rng0 = Rng.create (wseed + 7919) in
      for _ = 1 to keys / 2 do
        let k = 1 + Rng.below rng0 keys in
        if S.insert t k (500 + k) then init := Sp.M.add k (500 + k) !init
      done;
      (t, !init, Sp.M.cardinal !init)

    let draw rng ~keys ~v =
      let k = 1 + Rng.below rng keys in
      match Rng.below rng 3 with
      | 0 -> Sp.Search k
      | 1 -> Sp.Insert (k, v)
      | _ -> Sp.Delete k

    let apply t = function
      | Sp.Search k ->
          ( (match S.search t k with Some v -> Sp.Found v | None -> Sp.Absent),
            None )
      | Sp.Insert (k, v) -> ((if S.insert t k v then Sp.Ok else Sp.Dup), None)
      | Sp.Delete k -> (
          match S.delete t k with
          | Some v -> (Sp.Found v, Some v)
          | None -> (Sp.Absent, None))

    let moves input output =
      match (input, output) with
      | Sp.Insert _, (None | Some Sp.Ok) -> 1
      | Sp.Delete _, (None | Some (Sp.Found _)) -> -1
      | _ -> 0

    let size = S.size
    let validate = S.validate
  end)

(* Queues and stacks prefill [keys / 2] values and flip a coin per op. *)
let queue_target (module Qu : R.QUEUE_OPS) : (module TARGET) =
  (module struct
    module Sp = Lincheck.Queue_spec

    type t = Qu.t

    let create ~keys ~wseed:_ =
      let qu = Qu.create () in
      let prefill = List.init (keys / 2) (fun j -> 901 + j) in
      List.iter (Qu.enqueue qu) prefill;
      (qu, (prefill, []), keys / 2)

    let draw rng ~keys:_ ~v =
      if Rng.below rng 2 = 0 then Sp.Enqueue v else Sp.Dequeue

    let apply qu = function
      | Sp.Enqueue v ->
          Qu.enqueue qu v;
          (Sp.Unit, None)
      | Sp.Dequeue -> (
          match Qu.dequeue qu with
          | Some v -> (Sp.Got v, Some v)
          | None -> (Sp.Empty, None))

    let moves input output =
      match (input, output) with
      | Sp.Enqueue _, _ -> 1
      | Sp.Dequeue, (None | Some (Sp.Got _)) -> -1
      | _ -> 0

    let size = Qu.size
    let validate _ = true
  end)

let stack_target (module St : R.STACK_OPS) : (module TARGET) =
  (module struct
    module Sp = Lincheck.Stack_spec

    type t = St.t

    let create ~keys ~wseed:_ =
      let st = St.create () in
      let prefill = List.init (keys / 2) (fun j -> 901 + j) in
      List.iter (St.push st) prefill;
      (st, List.rev prefill, keys / 2)

    let draw rng ~keys:_ ~v = if Rng.below rng 2 = 0 then Sp.Push v else Sp.Pop

    let apply st = function
      | Sp.Push v ->
          St.push st v;
          (Sp.Unit, None)
      | Sp.Pop -> (
          match St.pop st with
          | Some v -> (Sp.Got v, Some v)
          | None -> (Sp.Empty, None))

    let moves input output =
      match (input, output) with
      | Sp.Push _, _ -> 1
      | Sp.Pop, (None | Some (Sp.Got _)) -> -1
      | _ -> 0

    let size = St.size
    let validate _ = true
  end)

let run_target tr (module T : TARGET) =
  let module H = Harness.History.Make (T.Sp) in
  let module L = H.L in
  let t, init, init_n = T.create ~keys:tr.t_keys ~wseed:tr.t_wseed in
  let hist = H.create ~nthreads:tr.t_threads in
  let q = Qsbr.create ~batch_size:4 () in
  let _stats, outcome =
    exec_trial tr (fun tid ->
        let rng = Rng.create ((tr.t_wseed * 131) + tid) in
        for i = 1 to tr.t_ops do
          let input = T.draw rng ~keys:tr.t_keys ~v:(((tid + 1) * 1000) + i) in
          ignore
            (H.record hist input (fun () ->
                 Qsbr.op_begin q;
                 let output, unlinked = T.apply t input in
                 Option.iter (Qsbr.retire q) unlinked;
                 Qsbr.op_end q;
                 output)
              : T.Sp.output);
          Sched.tick ();
          Sched.work (32 + Rng.below rng 64)
        done)
  in
  let crash_pts = crash_events () in
  let crashed = List.sort_uniq compare (List.map fst crash_pts) in
  let live_fail = liveness_failures tr.t_entry.e_kind outcome crash_pts in
  let state_fail =
    if live_fail <> [] || state_unwarranted tr.t_entry.e_kind crash_pts then []
    else
      let completed = H.completed ~widen:tr.t_read_slack hist in
      let pending = H.pending ~widen:tr.t_read_slack hist in
      let lin =
        match L.check ~init ~pending completed with
        | L.Witness _ | L.Too_large -> []
        | L.No_witness ->
            [
              {
                f_oracle = "linearizability";
                f_detail =
                  Printf.sprintf
                    "no linearization of %d completed + %d pending ops"
                    (List.length completed) (List.length pending);
              };
            ]
      in
      let moved =
        List.map
          (fun (e : L.event) -> T.moves e.input (Some e.output))
          completed
      in
      let may_move =
        List.map (fun (p : L.pending) -> T.moves p.p_input None) pending
      in
      let plus = count (( = ) 1) moved and minus = count (( = ) (-1)) moved in
      let p_plus = count (( = ) 1) may_move in
      let p_minus = count (( = ) (-1)) may_move in
      let base = init_n + plus - minus in
      let final = T.size t in
      let size =
        if final >= base - p_minus && final <= base + p_plus then []
        else
          [
            {
              f_oracle = "size";
              f_detail =
                Printf.sprintf
                  "final size %d outside [%d,%d] (init %d, +%d, -%d, pending \
                   +%d/-%d)"
                  final (base - p_minus) (base + p_plus) init_n plus minus
                  p_plus p_minus;
            };
          ]
      in
      let valid =
        if T.validate t then []
        else [ { f_oracle = "validate"; f_detail = "validation failed" } ]
      in
      lin @ size @ valid
  in
  let qsbr_fail = qsbr_failures q crashed in
  {
    o_completed =
      (match outcome with Harness.Runner.Complete -> true | _ -> false);
    o_crashed = crashed;
    o_failures = live_fail @ state_fail @ qsbr_fail;
  }

let run_trial tr =
  (* Reset the process-global state a trial touches, so outcomes depend
     only on the trial itself (determinism, and order-independence
     across trials in one fuzzing session). *)
  Dstruct.Sl_common.reset_states ();
  let saved_noise = Sched.noise_bits () in
  Fun.protect ~finally:(fun () -> Sched.set_noise_bits saved_noise)
  @@ fun () ->
  Sched.set_noise_bits tr.t_noise_bits;
  run_target tr
    (match tr.t_entry.e_target with
    | Set s -> set_target s
    | Queue q -> queue_target q
    | Stack s -> stack_target s)

let gen_spec rng nthreads =
  let f_point = points.(Rng.below rng (Array.length points)) in
  let f_tid =
    if Rng.below rng 10 < 6 then Some (Rng.below rng nthreads) else None
  in
  (* Bias toward explicit small hit counts: tiny workloads reach few
     checkpoints, and the seed-derived default (1..48) often overshoots
     them, making the spec a no-op. *)
  let f_hits = if Rng.below rng 10 < 7 then 1 + Rng.below rng 6 else 0 in
  let f_action =
    let r = Rng.below rng 10 in
    if r < 4 then Fault.Crash
    else if r < 7 then Fault.Stall (500 + Rng.below rng 50_000)
    else
      let victims =
        if Rng.below rng 10 < 7 then [] else [ Rng.below rng nthreads ]
      in
      Fault.Storm { victims; duration = 500 + Rng.below rng 50_000 }
  in
  { Fault.f_tid; f_point; f_hits; f_action }

let gen_trial entries rng =
  let e = List.nth entries (Rng.below rng (List.length entries)) in
  let t_topo = pick rng topo_names in
  let t_threads = 2 + Rng.below rng 4 in
  let t_ops = 1 + Rng.below rng 5 in
  let t_keys = 2 + Rng.below rng 6 in
  let t_quantum = pick rng [| 2_000; 20_000; 200_000; 1_000_000 |] in
  let t_read_slack = pick rng [| 0; 0; 0; 200; 1_000 |] in
  let t_noise_bits = pick rng [| 62; 62; 16; 8; 0 |] in
  let t_wseed = Rng.below rng 1_000_000 in
  let seed = Rng.below rng 1_000_000 in
  let nspecs = 1 + Rng.below rng 3 in
  let specs = ref [] in
  for _ = 1 to nspecs do
    specs := gen_spec rng t_threads :: !specs
  done;
  {
    t_entry = e;
    t_topo;
    t_threads;
    t_ops;
    t_keys;
    t_quantum;
    t_read_slack;
    t_noise_bits;
    t_wseed;
    t_plan = { Fault.seed; specs = List.rev !specs };
  }

(* Candidate reductions, most aggressive first: losing a whole spec beats
   halving a duration beats halving a hit count beats shaving a workload
   dimension. *)
let candidates tr =
  List.map
    (fun t_plan -> { tr with t_plan })
    (plan_candidates tr.t_plan
       [
         (fun (sp : Fault.spec) ->
           match sp.f_action with
           | Fault.Stall n when n > 1_000 ->
               Some { sp with f_action = Fault.Stall (n / 2) }
           | Fault.Storm { victims; duration } when duration > 1_000 ->
               let duration = duration / 2 in
               Some { sp with f_action = Fault.Storm { victims; duration } }
           | _ -> None);
         (fun sp ->
           if sp.f_hits > 1 then Some { sp with f_hits = sp.f_hits / 2 }
           else None);
       ])
  @ (if tr.t_threads > 2 then [ { tr with t_threads = tr.t_threads - 1 } ]
     else [])
  @ (if tr.t_ops > 1 then [ { tr with t_ops = tr.t_ops - 1 } ] else [])
  @ if tr.t_keys > 2 then [ { tr with t_keys = tr.t_keys - 1 } ] else []

let structure_family entries =
  {
    name = "chaos";
    command = "chaos";
    budget = 300;
    to_string;
    of_string = of_string entries;
    gen = gen_trial entries;
    candidates;
    check =
      (fun tr ->
        let o = run_trial tr in
        {
          v_failures = o.o_failures;
          v_line =
            Printf.sprintf "run %s; crashed threads [%s]"
              (if o.o_completed then "completed" else "aborted")
              (String.concat ";" (List.map string_of_int o.o_crashed));
        });
  }

(* ------------------------------------------------------------------ *)
(* KV service trials                                                   *)

(* Trials over the sharded KV service: the structure-level oracles above
   do not apply (the service retries, fails over and sheds on purpose);
   the oracles here are the service's own — the run terminates, the
   stores stay valid, and no acknowledged write is lost or duplicated.

   The warranty the oracle judges against is re-armable: each completed
   resync restores a pair's f = 1 budget, so the generator may schedule
   many sequential crashes per pair (spaced by a guessed resync window),
   plus deliberate double-crash-during-resync schedules via
   [resynccrash]. Crash schedules the service could not absorb void the
   pair and the oracle excuses their losses ([warranted_ok]), so every
   plan is legal; what it must never see is:
   - an acked write lost or duplicated in a pair still under warranty;
   - a pair that took a crash mid-resync yet claims its warranty back
     (a fired [Resync_crash] must leave that pair Voided — anything
     else is a forged re-arm);
   - client crashes only at op-boundary (between requests, outside any
     structure lock protocol), so an abort is never excusable;
   - stall/storm durations far below the watchdog's starvation horizon.
   Any failure a fuzz run finds is therefore a real robustness bug, not
   an out-of-warranty plan. *)

type kv_trial = {
  kv_rep : string;
  kv_topo : string;
  kv_shards : int;
  kv_threads : int;
  kv_ops : int;
  kv_keys : int;
  kv_read : int;  (** read percentage *)
  kv_scan : int;  (** scan percentage *)
  kv_wseed : int;
  kv_degraded : int;  (** degraded window before a wiped store resyncs *)
  kv_batch : int;  (** resync copy batch size *)
  kv_plan : Fault.plan;
}

(* The KV and transaction oracles both start from the whole run: it must
   terminate, and every structure must validate. *)
let run_failures what invalid (m : Harness.Runner.measurement) =
  (match m.outcome with
  | Harness.Runner.Complete -> []
  | Harness.Runner.Aborted rep ->
      [
        {
          f_oracle = "liveness";
          f_detail =
            Format.asprintf "%s aborted: %a" what Sched.pp_verdict
              rep.Sched.r_verdict;
        };
      ])
  @ if m.valid then [] else [ { f_oracle = "validate"; f_detail = invalid } ]

let kv_to_string tr =
  Printf.sprintf "kv/%s@%s s%d t%d o%d k%d R%d C%d w%d D%d B%d f%s" tr.kv_rep
    tr.kv_topo tr.kv_shards tr.kv_threads tr.kv_ops tr.kv_keys tr.kv_read
    tr.kv_scan tr.kv_wseed tr.kv_degraded tr.kv_batch
    (Fault.to_string tr.kv_plan)

let kv_of_string s =
  let name, topo, toks = tokenize "kv trial" s in
  let tr =
    List.fold_left
      (fun tr (c, v) ->
        let n what = parse_int what v in
        match c with
        | 's' -> { tr with kv_shards = n "shards" }
        | 't' -> { tr with kv_threads = n "threads" }
        | 'o' -> { tr with kv_ops = n "ops" }
        | 'k' -> { tr with kv_keys = n "keys" }
        | 'R' -> { tr with kv_read = n "read pct" }
        | 'C' -> { tr with kv_scan = n "scan pct" }
        | 'w' -> { tr with kv_wseed = n "workload seed" }
        | 'D' -> { tr with kv_degraded = n "degraded" }
        | 'B' -> { tr with kv_batch = n "batch" }
        | 'f' -> { tr with kv_plan = Fault.of_string v }
        | _ -> bad_token c v)
      {
        kv_rep = rep_of "kv" Kv.rep_names name;
        kv_topo = topo;
        kv_shards = 1;
        kv_threads = 2;
        kv_ops = 100;
        kv_keys = 64;
        kv_read = 50;
        kv_scan = 10;
        kv_wseed = 0;
        kv_degraded = Kv.default_policy.Kv.degraded_cycles;
        kv_batch = Kv.default_policy.Kv.resync_batch;
        kv_plan = { Fault.seed = 0; specs = [] };
      }
      toks
  in
  bounded tr
    [
      ( tr.kv_shards >= 1 && tr.kv_threads >= 1 && tr.kv_ops >= 1,
        "shards/threads/ops must be positive" );
      ( tr.kv_degraded >= 0 && tr.kv_batch >= 1,
        "degraded window must be >= 0 and batch >= 1" );
      (tr.kv_keys >= 1, "keys must be positive");
      ( tr.kv_read >= 0 && tr.kv_scan >= 0 && tr.kv_read + tr.kv_scan <= 100,
        "read and scan pct must be >= 0 with read + scan <= 100" );
    ]

let kv_config tr : Kv.config =
  {
    Kv.rep = tr.kv_rep;
    nshards = tr.kv_shards;
    threads = tr.kv_threads;
    ops = tr.kv_ops;
    seed = tr.kv_wseed;
    topo = topology_of_name tr.kv_topo;
    workload =
      {
        Kv.default_workload with
        Kv.keys = tr.kv_keys;
        read_pct = tr.kv_read;
        scan_pct = tr.kv_scan;
      };
    policy =
      {
        Kv.default_policy with
        Kv.degraded_cycles = tr.kv_degraded;
        resync_batch = tr.kv_batch;
      };
    plan = Some tr.kv_plan;
  }

let run_kv_trial tr =
  let m, r = Kv.run (kv_config tr) in
  let o = r.Kv.res_oracle in
  let acked =
    if o.Kv.warranted_ok then []
    else
      [
        {
          f_oracle = "acked-write";
          f_detail =
            Printf.sprintf "%d lost in warranty, %d duplicated (of %d acked)"
              (List.length o.Kv.lost_unwarranted)
              (List.length o.Kv.duplicated)
              o.Kv.acked_writes;
        };
      ]
  in
  (* Must-drop: a crash that fired mid-resync (a [Resync_crash] only
     counts hits while its pair is copying) is the pair's second crash
     before catch-up, and later successful resyncs must not re-arm it.
     A final warranty other than Voided is a forged re-arm. *)
  let voided =
    List.filter_map
      (fun (e : Fault.event) ->
        match e.e_spec.f_action with
        | Fault.Resync_crash { shard; _ } ->
            let pair = shard mod tr.kv_shards in
            if r.Kv.res_warranty.(pair) <> Kv.Voided then
              Some
                {
                  f_oracle = "warranty";
                  f_detail =
                    Printf.sprintf
                      "crash fired mid-resync on pair %d yet warranty is %s \
                       (must drop to voided)"
                      pair
                      (Kv.warranty_name r.Kv.res_warranty.(pair));
                }
            else None
        | _ -> None)
      (Fault.events ())
  in
  (m, r, run_failures "service" "a shard store is invalid" m @ acked @ voided)

let kv_reps = [| "ht-optik"; "ll-optik"; "ll-harris"; "sl-optik" |]

let gen_kv_trial rng =
  let kv_rep = pick rng kv_reps in
  let kv_topo = pick rng topo_names in
  let kv_shards = 1 + Rng.below rng 4 in
  let kv_threads = 2 + Rng.below rng 5 in
  let kv_ops = 200 + Rng.below rng 1_000 in
  let kv_keys = 64 + Rng.below rng 448 in
  let kv_read = Rng.below rng 90 in
  let kv_scan = Rng.below rng (91 - kv_read) in
  let kv_wseed = Rng.below rng 1_000_000 in
  let kv_degraded = 2_000 + Rng.below rng 60_000 in
  let kv_batch = 8 lsl Rng.below rng 5 (* 8..128 *) in
  let seed = Rng.below rng 1_000_000 in
  let specs = ref [] in
  (* Shard faults: per pair, a short sequence of crashes. The re-armable
     warranty makes any schedule legal — crashes the resync absorbs are
     judged strictly, crashes that land before catch-up void the pair
     and the oracle excuses it — so the generator need not ration the
     f = 1 budget; it spaces crashes by a guessed resync window to give
     re-arms a chance, and sometimes aims a [resynccrash] at the
     recovery window on purpose (the double-crash-during-resync
     family). *)
  for i = 0 to kv_shards - 1 do
    let ncrashes = Rng.below rng 3 in
    let hits = ref 0 in
    for c = 0 to ncrashes - 1 do
      let store = if Rng.below rng 2 = 0 then i else kv_shards + i in
      let point = points.(Rng.below rng (Array.length points)) in
      hits := !hits + 1 + Rng.below rng (min 200 kv_ops);
      let r = Rng.below rng 3 in
      let down_for = if r = 0 then 0 else 2_000 + Rng.below rng 100_000 in
      specs := Fault.shard_crash ~hits:!hits ~down_for store point :: !specs;
      if r = 0 && Rng.below rng 2 = 0 then
        specs :=
          Fault.shard_recover ~hits:(!hits + 1 + Rng.below rng 50) store
            Rt.Rt_intf.Op_boundary
          :: !specs;
      (* Double-crash-during-resync: crash the pair's other store a few
         hits into the repair the crash above provokes ([resynccrash]
         hits only count while the pair is mid-copy, so placement needs
         no timing knowledge). *)
      if c = ncrashes - 1 && Rng.below rng 3 = 0 then begin
        let other = if store < kv_shards then kv_shards + i else i in
        specs :=
          Fault.resync_crash
            ~hits:(1 + Rng.below rng 8)
            ~down_for:(2_000 + Rng.below rng 50_000)
            other Rt.Rt_intf.Op_boundary
          :: !specs
      end
    done
  done;
  (* Client faults: crashes only between requests (op-boundary — outside
     any lock protocol, so aborts are never excusable), stalls and storms
     anywhere, all far below the watchdog horizon. *)
  let nclient = Rng.below rng 3 in
  let ncrashes = ref 0 in
  for _ = 1 to nclient do
    let r = Rng.below rng 10 in
    if r < 3 && !ncrashes < kv_threads - 1 then begin
      incr ncrashes;
      specs :=
        Fault.crash
          ~tid:(Rng.below rng kv_threads)
          ~hits:(1 + Rng.below rng (min 100 kv_ops))
          Rt.Rt_intf.Op_boundary
        :: !specs
    end
    else
      let point = points.(Rng.below rng (Array.length points)) in
      let hits = 1 + Rng.below rng 50 in
      if r < 7 then
        specs := Fault.stall ~hits (500 + Rng.below rng 50_000) point :: !specs
      else
        specs := Fault.storm ~hits (500 + Rng.below rng 50_000) point :: !specs
  done;
  {
    kv_rep;
    kv_topo;
    kv_shards;
    kv_threads;
    kv_ops;
    kv_keys;
    kv_read;
    kv_scan;
    kv_wseed;
    kv_degraded;
    kv_batch;
    kv_plan = { Fault.seed; specs = List.rev !specs };
  }

(* Shrink-lite for kv trials: drop fault specs, shorten windows, shave
   client threads and ops. Shard count stays put — replica store indices
   are [nshards + i], so changing it would re-address the plan. *)
let kv_candidates tr =
  List.map
    (fun kv_plan -> { tr with kv_plan })
    (plan_candidates tr.kv_plan
       [
         (fun (sp : Fault.spec) ->
           match sp.f_action with
           | Fault.Shard_crash { shard; down_for } when down_for > 4_000 ->
               let down_for = down_for / 2 in
               Some { sp with f_action = Fault.Shard_crash { shard; down_for } }
           | Fault.Resync_crash { shard; down_for } when down_for > 4_000 ->
               let down_for = down_for / 2 in
               Some { sp with f_action = Fault.Resync_crash { shard; down_for } }
           | _ -> None);
       ])
  @ (if tr.kv_threads > 2 then [ { tr with kv_threads = tr.kv_threads - 1 } ]
     else [])
  @ (if tr.kv_ops > 100 then [ { tr with kv_ops = tr.kv_ops / 2 } ] else [])
  @ (if tr.kv_keys > 64 then [ { tr with kv_keys = tr.kv_keys / 2 } ] else [])
  @ (if tr.kv_degraded > 2_000 then
       [ { tr with kv_degraded = tr.kv_degraded / 2 } ]
     else [])
  @ if tr.kv_batch > 8 then [ { tr with kv_batch = tr.kv_batch / 2 } ] else []

let kv_family =
  {
    name = "chaos-kv";
    command = "kv";
    budget = 60;
    to_string = kv_to_string;
    of_string = kv_of_string;
    gen = gen_kv_trial;
    candidates = kv_candidates;
    check =
      (fun tr ->
        let _, r, fs = run_kv_trial tr in
        {
          v_failures = fs;
          v_line = Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle;
        });
  }

(* ------------------------------------------------------------------ *)
(* Transaction trials                                                  *)

type txn_trial = {
  x_rep : string;
  x_topo : string;
  x_objects : int;
  x_accounts : int;
  x_threads : int;
  x_ops : int;
  x_transfer : int;  (** transfer percentage; the rest are audits *)
  x_wseed : int;
  x_broken : bool;
}

let txn_to_string tr =
  Printf.sprintf "txn/%s@%s b%d a%d t%d o%d X%d w%d%s" tr.x_rep tr.x_topo
    tr.x_objects tr.x_accounts tr.x_threads tr.x_ops tr.x_transfer tr.x_wseed
    (if tr.x_broken then " !" else "")

let txn_of_string s =
  let name, topo, toks = tokenize "txn trial" s in
  let tr =
    List.fold_left
      (fun tr (c, v) ->
        let n what = parse_int what v in
        match (c, v) with
        | '!', "" -> { tr with x_broken = true }
        | 'b', _ -> { tr with x_objects = n "objects" }
        | 'a', _ -> { tr with x_accounts = n "accounts" }
        | 't', _ -> { tr with x_threads = n "threads" }
        | 'o', _ -> { tr with x_ops = n "ops" }
        | 'X', _ -> { tr with x_transfer = n "transfer pct" }
        | 'w', _ -> { tr with x_wseed = n "workload seed" }
        | _ -> bad_token c v)
      {
        x_rep = rep_of "txn" Txn.Workload.rep_names name;
        x_topo = topo;
        x_objects = 2;
        x_accounts = 8;
        x_threads = 2;
        x_ops = 200;
        x_transfer = 70;
        x_wseed = 0;
        x_broken = false;
      }
      toks
  in
  bounded tr
    [
      ( tr.x_objects >= 1 && tr.x_threads >= 1 && tr.x_ops >= 1,
        "objects/threads/ops must be positive" );
      (tr.x_objects * tr.x_accounts >= 2, "need at least two account slots");
      ( tr.x_transfer >= 0 && tr.x_transfer <= 100,
        "transfer pct must be in 0..100" );
    ]

let txn_config tr : Txn.Workload.config =
  {
    Txn.Workload.default_config with
    Txn.Workload.rep = tr.x_rep;
    objects = tr.x_objects;
    accounts = tr.x_accounts;
    threads = tr.x_threads;
    ops = tr.x_ops;
    transfer_pct = tr.x_transfer;
    seed = tr.x_wseed;
    topo = topology_of_name tr.x_topo;
    broken = tr.x_broken;
  }

(* The transaction oracle: strict serializability of the committed
   history ({!Txn.Workload.check_serializable} — replay in ticket order
   plus snapshot positioning), structure validity, and liveness. *)
let run_txn_trial tr =
  let m, r = Txn.Workload.run (txn_config tr) in
  let o = r.Txn.Workload.res_oracle in
  let serial =
    if o.Txn.Workload.ok then []
    else
      [
        {
          f_oracle = "serializability";
          f_detail =
            Printf.sprintf "%d violations (%d transfers, %d audits)%s"
              (List.length o.Txn.Workload.violations)
              o.Txn.Workload.transfers o.Txn.Workload.audits
              (match o.Txn.Workload.violations with
              | v :: _ -> ": " ^ v
              | [] -> "");
        };
      ]
  in
  (m, r, run_failures "workload" "an object is invalid" m @ serial)

let txn_reps =
  [| "ll-optik"; "map-optik"; "ht-optik"; "sl-optik"; "bst-optik"; "ll-lazy" |]

let gen_txn_trial rng =
  {
    x_rep = pick rng txn_reps;
    x_topo = pick rng topo_names;
    x_objects = 1 + Rng.below rng 4;
    x_accounts = 2 + Rng.below rng 30;
    x_threads = 2 + Rng.below rng 6;
    x_ops = 200 + Rng.below rng 1_500;
    x_transfer = 30 + Rng.below rng 71;
    x_wseed = Rng.below rng 1_000_000;
    x_broken = false;
  }

let txn_candidates tr =
  (if tr.x_threads > 2 then [ { tr with x_threads = tr.x_threads - 1 } ] else [])
  @ (if tr.x_ops > 100 then [ { tr with x_ops = tr.x_ops / 2 } ] else [])
  @ (if tr.x_accounts > 2 then [ { tr with x_accounts = tr.x_accounts / 2 } ]
     else [])
  @
  if tr.x_objects > 1 && (tr.x_objects - 1) * tr.x_accounts >= 2 then
    [ { tr with x_objects = tr.x_objects - 1 } ]
  else []

let txn_family =
  {
    name = "chaos-txn";
    command = "txn";
    budget = 60;
    to_string = txn_to_string;
    of_string = txn_of_string;
    gen = gen_txn_trial;
    candidates = txn_candidates;
    check =
      (fun tr ->
        let _, r, fs = run_txn_trial tr in
        {
          v_failures = fs;
          v_line =
            Format.asprintf "%a" Txn.Workload.pp_oracle
              r.Txn.Workload.res_oracle;
        });
  }
