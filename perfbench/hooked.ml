(** A [SET_OPS] wrapper that splits a registry runner's execution into
    phases from outside.

    [Harness.Runner.run_set_sim] and [run_set_native] create, prefill,
    run and validate a structure in one call. Wrapping the structure's
    operations lets the benchmark see where each phase ends without
    touching the runner:
    - the [init_size]-th successful insert ends the prefill (set-up);
    - the first operation after it opens the measured window;
    - the first [size] or [validate] call closes it; the time spent in
      those calls is the post-run check.

    Inside the window the wrapper counts successful inserts and deletes
    per thread, so the final size can be checked. On the simulator it
    also records each operation's virtual latency into a buffer
    allocated up front, so the window's allocation count stays the
    program's own. None of this issues a simulated access: the virtual
    clock is untouched. *)

module Pstats = Harness.Pstats

(* Per-thread counters sit [stride] ints apart, so native domains do not
   share a cache line. *)
let stride = 16
let max_threads = 64

type marks = {
  init_size : int;
  mutable prefilled : int;
  mutable setup_end : float;  (** CPU time when prefill completed *)
  mutable started : bool;
  mutable words_open : float;  (** allocation counter at the first op *)
  mutable words_close : float;  (** ... and at the first post-run check *)
  mutable cpu_open : float;  (** CPU time at the first op *)
  mutable cpu_close : float;  (** ... and at the first post-run check *)
  mutable check_s : float;  (** CPU time spent in [size]/[validate] *)
  ins : int array;
  del : int array;
  lat : int array;  (** virtual latencies, in completion order *)
  is_update : Bytes.t;  (** per [lat] slot: '\001' for an update *)
  mutable n_lat : int;
}

let sum_counts a =
  let s = ref 0 in
  for t = 0 to max_threads - 1 do
    s := !s + a.(t * stride)
  done;
  !s

let inserted mk = sum_counts mk.ins
let deleted mk = sum_counts mk.del
let window_words mk = mk.words_close -. mk.words_open
let window_cpu_s mk = mk.cpu_close -. mk.cpu_open

(** The recorded latencies of searches ([`Search]) or updates
    ([`Update]) as collectors, for {!Measure.pooled}. *)
let latencies mk which =
  let want = match which with `Search -> '\000' | `Update -> '\001' in
  let cols = ref [] and cur = ref (Pstats.create ()) and n = ref 0 in
  for i = 0 to mk.n_lat - 1 do
    if Bytes.get mk.is_update i = want then begin
      if !n = Pstats.capacity then begin
        cols := !cur :: !cols;
        cur := Pstats.create ();
        n := 0
      end;
      Pstats.record !cur mk.lat.(i);
      incr n
    end
  done;
  !cur :: !cols

(** [hook ?clock s ~init_size ~ops ~tid] wraps [s]. [clock] is the
    virtual clock to record latencies with (simulator only), for up to
    [2 * ops] operations; [tid] names the calling thread. *)
let hook ?clock (module S : Harness.Registry.SET_OPS) ~init_size ~ops
    ~(tid : unit -> int) : (module Harness.Registry.SET_OPS) * marks =
  let cap = match clock with None -> 0 | Some _ -> 2 * ops in
  let mk =
    {
      init_size;
      prefilled = 0;
      setup_end = nan;
      started = false;
      words_open = nan;
      words_close = nan;
      cpu_open = nan;
      cpu_close = nan;
      check_s = 0.;
      ins = Array.make (max_threads * stride) 0;
      del = Array.make (max_threads * stride) 0;
      lat = Array.make cap 0;
      is_update = Bytes.make cap '\000';
      n_lat = 0;
    }
  in
  let start () =
    if not mk.started then begin
      mk.started <- true;
      mk.words_open <- Measure.words ();
      mk.cpu_open <- Measure.cpu ()
    end;
    match clock with None -> 0 | Some now -> now ()
  in
  let finish update t0 =
    match clock with
    | Some now when mk.n_lat < cap ->
        mk.lat.(mk.n_lat) <- now () - t0;
        if update then Bytes.set mk.is_update mk.n_lat '\001';
        mk.n_lat <- mk.n_lat + 1
    | _ -> ()
  in
  let bump a =
    let i = tid () * stride in
    a.(i) <- a.(i) + 1
  in
  let check f t =
    if Float.is_nan mk.words_close then begin
      mk.cpu_close <- Measure.cpu ();
      mk.words_close <- Measure.words ()
    end;
    let t0 = Measure.cpu () in
    let r = f t in
    mk.check_s <- mk.check_s +. (Measure.cpu () -. t0);
    r
  in
  let module H = struct
    include S

    let insert t k v =
      if mk.prefilled < mk.init_size then begin
        let ok = S.insert t k v in
        if ok then begin
          mk.prefilled <- mk.prefilled + 1;
          if mk.prefilled = mk.init_size then mk.setup_end <- Measure.cpu ()
        end;
        ok
      end
      else begin
        let t0 = start () in
        let ok = S.insert t k v in
        finish true t0;
        if ok then bump mk.ins;
        ok
      end

    let delete t k =
      let t0 = start () in
      let r = S.delete t k in
      finish true t0;
      if r <> None then bump mk.del;
      r

    let search t k =
      let t0 = start () in
      let r = S.search t k in
      finish false t0;
      r

    let size t = check S.size t
    let validate t = check S.validate t
  end in
  ((module H), mk)
