(** Quiescent-state-based memory reclamation — the [ssmem] substitute.

    The paper's data structures rely on ssmem, a memory allocator with
    quiescent-state-based garbage collection (§3.3): a retired node may be
    reused only after every thread has passed through a quiescent state
    (an operation boundary) following its retirement. In OCaml the runtime
    GC already guarantees memory safety, so reclamation here is {e logical}
    — the point of this module is to reproduce ssmem's protocol and
    statistics faithfully, because the paper's designs depend on its
    semantics: e.g. node caches (§5.1) must never observe a recycled node,
    and the fine-grained list (§4.2) leaves deleted nodes locked forever
    precisely so that a reclaimer cannot hand them out again.

    Protocol: each thread [i] owns an activity stamp [stamp t i], incremented
    when an operation begins (stamp becomes odd = inside an operation) and
    when it ends (even = quiescent). Retired objects accumulate in
    per-thread batches; a full batch is sealed with a snapshot of all
    stamps. A sealed batch is reclaimed once every thread is either outside
    any operation or has been observed with a stamp different from the
    snapshot — i.e., every operation concurrent with the retirement has
    finished. *)

module type RT = Rt.Rt_intf.RT

module Make (Rt : RT) = struct
  type 'a batch = { snapshot : int array; items : 'a list }

  type 'a slot = {
    mutable current : 'a list;
    mutable current_n : int;
    mutable sealed : 'a batch list;  (** oldest last *)
    mutable n_retired : int;
    mutable n_freed : int;
  }

  (* Host-side bookkeeping, built by the first call that needs it
     ([retire], [flush], [declare_dead], [stalled]): most instances (one
     per hash-table bucket) never retire anything. *)
  type 'a host = {
    slots : 'a slot array;
    (* Epoch-stall detection: a thread that crashes or stalls inside an
       operation never advances its stamp again and would otherwise block
       reclamation forever, growing [pending] without bound. Each reclaim
       attempt that finds the oldest batch blocked by thread [i] with an
       {e unchanged} stamp counts one observation against [i]; at
       [stall_obs] consecutive observations (0 = never) the thread is
       declared dead and no longer consulted. Logical reclamation makes
       this safe in OCaml — a wrongly-declared thread that resumes reads
       nodes the GC still keeps alive — whereas a real allocator would
       need the declaration to be conservative. *)
    obs : int array;  (** consecutive blocked-with-same-stamp observations *)
    obs_stamp : int array;  (** stamp at the last observation of [i] *)
    dead : bool array;
  }

  type 'a t = {
    ts : int Rt.row;
        (** one stamp per thread; a stamp's cell is built when its thread
            first touches it, its line id is reserved at creation *)
    batch_size : int;
    free_fn : 'a -> unit;
    max_threads : int;
    stall_obs : int;
    mutable host : 'a host option;
  }

  let default_batch = 64

  let create ?(max_threads = 128) ?(batch_size = default_batch)
      ?(stall_obs = 0) ?(free = fun _ -> ()) () =
    {
      ts = Rt.atomic_row max_threads 0;
      batch_size;
      free_fn = free;
      max_threads;
      stall_obs;
      host = None;
    }

  let host t =
    match t.host with
    | Some h -> h
    | None ->
        let n = t.max_threads in
        let h =
          {
            slots =
              Array.init n (fun _ ->
                  {
                    current = [];
                    current_n = 0;
                    sealed = [];
                    n_retired = 0;
                    n_freed = 0;
                  });
            obs = Array.make n 0;
            obs_stamp = Array.make n 0;
            dead = Array.make n false;
          }
        in
        t.host <- Some h;
        h

  let[@inline] stamp t i = Rt.row_cell t.ts i

  let in_op stamp = stamp land 1 = 1

  (* Operation boundaries. The stamp is only ever written by its owner, so
     a load + release store suffices (no RMW). *)
  let op_begin t =
    let c = stamp t (Rt.tid ()) in
    let s = Rt.get c in
    if in_op s then invalid_arg "Qsbr.op_begin: already inside an operation";
    Rt.set c (s + 1)

  let op_end t =
    let c = stamp t (Rt.tid ()) in
    let s = Rt.get c in
    if not (in_op s) then invalid_arg "Qsbr.op_end: not inside an operation";
    Rt.set c (s + 1)

  (* A quiescent pass outside any bracketed operation. *)
  let quiescent t =
    let c = stamp t (Rt.tid ()) in
    let s = Rt.get c in
    if in_op s then invalid_arg "Qsbr.quiescent: inside an operation";
    Rt.set c (s + 2)

  (* A sealed batch is safe once every thread that was inside an operation
     at sealing time has moved on (threads declared dead don't count). *)
  let batch_safe t h (b : 'a batch) =
    let ok = ref true in
    let n = t.max_threads in
    let i = ref 0 in
    while !ok && !i < n do
      let snap = b.snapshot.(!i) in
      if (not h.dead.(!i)) && in_op snap && Rt.get (stamp t !i) = snap then
        ok := false;
      incr i
    done;
    !ok

  (* Count one stall observation against every thread blocking batch [b]
     with an unchanged stamp; returns whether any crossed [stall_obs] and
     was declared dead (so the caller should retry reclamation). *)
  let note_stalled t h (b : 'a batch) =
    let newly_dead = ref false in
    for i = 0 to t.max_threads - 1 do
      let snap = b.snapshot.(i) in
      if (not h.dead.(i)) && in_op snap then
        let cur = Rt.get (stamp t i) in
        if cur = snap then (
          if h.obs_stamp.(i) = snap then h.obs.(i) <- h.obs.(i) + 1
          else (
            h.obs_stamp.(i) <- snap;
            h.obs.(i) <- 1);
          if t.stall_obs > 0 && h.obs.(i) >= t.stall_obs then (
            h.dead.(i) <- true;
            newly_dead := true))
        else if h.obs_stamp.(i) = snap then (
          (* moved on since we last looked: progressing, not stalled *)
          h.obs.(i) <- 0;
          h.obs_stamp.(i) <- cur)
    done;
    !newly_dead

  (* Sealed batches age from list head (newest) to tail (oldest); walk the
     oldest-first view and reclaim leading safe batches. Stopping at the
     first unsafe batch keeps reclamation FIFO (conservative but simple —
     a newer batch can only be safe if checked independently anyway). The
     first unsafe batch also feeds stall detection: if that declares a
     blocker dead, retry, so a dead thread frees everything it blocked. *)
  let reclaim t h slot =
    let rec go oldest_first =
      let rec take_safe = function
        | b :: rest when batch_safe t h b ->
            List.iter t.free_fn b.items;
            slot.n_freed <- slot.n_freed + List.length b.items;
            take_safe rest
        | rest -> rest
      in
      match take_safe oldest_first with
      | [] -> []
      | b :: _ as remaining ->
          if note_stalled t h b then go remaining else remaining
    in
    slot.sealed <- List.rev (go (List.rev slot.sealed))

  let declare_dead t i =
    if i < 0 || i >= t.max_threads then
      invalid_arg "Qsbr.declare_dead: bad thread id";
    (host t).dead.(i) <- true

  (* Threads the reclaimer currently believes are stuck: declared dead, or
     observed blocking the reclamation frontier with an unchanged stamp on
     at least two consecutive attempts. *)
  let stalled t =
    let h = host t in
    let acc = ref [] in
    for i = t.max_threads - 1 downto 0 do
      if h.dead.(i) || h.obs.(i) >= 2 then acc := i :: !acc
    done;
    !acc

  let seal t slot =
    if slot.current_n > 0 then (
      let snapshot = Array.init t.max_threads (fun i -> Rt.get (stamp t i)) in
      slot.sealed <- { snapshot; items = slot.current } :: slot.sealed;
      slot.current <- [];
      slot.current_n <- 0)

  let retire t x =
    let h = host t in
    let slot = h.slots.(Rt.tid ()) in
    slot.current <- x :: slot.current;
    slot.current_n <- slot.current_n + 1;
    slot.n_retired <- slot.n_retired + 1;
    if slot.current_n >= t.batch_size then (
      seal t slot;
      reclaim t h slot)

  (* Force-seal the calling thread's batch and reclaim what is safe. *)
  let flush t =
    let h = host t in
    let slot = h.slots.(Rt.tid ()) in
    seal t slot;
    reclaim t h slot

  type stats = { retired : int; freed : int; pending : int }

  let stats t =
    let slots = match t.host with Some h -> h.slots | None -> [||] in
    Array.fold_left
      (fun acc slot ->
        {
          retired = acc.retired + slot.n_retired;
          freed = acc.freed + slot.n_freed;
          pending =
            acc.pending + slot.current_n
            + List.fold_left (fun a b -> a + List.length b.items) 0 slot.sealed;
        })
      { retired = 0; freed = 0; pending = 0 }
      slots
end
