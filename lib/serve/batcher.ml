type outcome =
  | Computed of (Octant.Estimate.t, string) result * Obs.Telemetry.Audit.entry list
  | Expired

type item = {
  obs : Octant.Pipeline.observations;
  deadline : float option;
  want_audit : bool;
  on_done : outcome -> unit;
}

type compute = {
  run_batch :
    jobs:int option ->
    Octant.Pipeline.observations array ->
    (Octant.Estimate.t, string) result array;
  run_audited :
    Octant.Pipeline.observations -> Octant.Estimate.t * Obs.Telemetry.Audit.entry list;
}

let compute_of_ctx ctx =
  {
    run_batch = (fun ~jobs obs -> Octant.Pipeline.localize_batch ?jobs ctx obs);
    run_audited = (fun obs -> Octant.Pipeline.localize_audited ctx obs);
  }

type t = {
  compute : compute;
  jobs : int option;
  max_queue : int;
  max_batch : int;
  batch_delay_s : float;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : item Queue.t;
  closed : bool Atomic.t;
  mutable worker : Thread.t option; (* None after drain joins it *)
}

(* The callback runs here, on the worker thread.  One that raises must
   not unwind the worker: every later item would then wait forever. *)
let resolve it outcome =
  try it.on_done outcome with _ -> Obs.Telemetry.Counter.incr Metrics.dispatch_failures

(* A computed outcome still answers [Expired] when the item's deadline
   passed during the solve: the client stopped waiting, and an [ok] after
   the deadline would falsely claim the budget was met. *)
let resolve_checking_deadline it outcome =
  let now = Unix.gettimeofday () in
  match it.deadline with
  | Some d when now > d ->
      Obs.Telemetry.Counter.incr Metrics.expired;
      resolve it Expired
  | _ -> resolve it outcome

let exn_reason e = Printf.sprintf "solver exception: %s" (Printexc.to_string e)

(* Compute one drained batch and resolve every item in it.  Runs on the
   worker thread; [run_batch] fans out over the domain pool from here
   (spawning domains from a systhread is supported on OCaml >= 5.1, the
   toolchain floor).  Every exit path — including an exception escaping
   the solver — resolves every item: an unresolved item is a client that
   never gets its reply, and a drain that never ends. *)
let dispatch t items =
  let now = Unix.gettimeofday () in
  let live, dead =
    List.partition
      (fun it -> match it.deadline with Some d -> now <= d | None -> true)
      items
  in
  List.iter
    (fun it ->
      Obs.Telemetry.Counter.incr Metrics.expired;
      resolve it Expired)
    dead;
  if not (List.is_empty live) then begin
    Obs.Telemetry.Counter.incr Metrics.batches;
    Obs.Telemetry.Histogram.observe Metrics.h_batch_size (float_of_int (List.length live));
    let plain, audited = List.partition (fun it -> not it.want_audit) live in
    let plain_arr = Array.of_list plain in
    if Array.length plain_arr > 0 then begin
      match t.compute.run_batch ~jobs:t.jobs (Array.map (fun it -> it.obs) plain_arr) with
      | results ->
          Array.iteri
            (fun i r -> resolve_checking_deadline plain_arr.(i) (Computed (r, [])))
            results
      | exception e ->
          Obs.Telemetry.Counter.incr Metrics.dispatch_failures;
          let reason = exn_reason e in
          Array.iter (fun it -> resolve it (Computed (Error reason, []))) plain_arr
    end;
    List.iter
      (fun it ->
        match t.compute.run_audited it.obs with
        | est, audit -> resolve_checking_deadline it (Computed (Ok est, audit))
        | exception Invalid_argument reason -> resolve it (Computed (Error reason, []))
        | exception e ->
            Obs.Telemetry.Counter.incr Metrics.dispatch_failures;
            resolve it (Computed (Error (exn_reason e), [])))
      audited
  end

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not (Atomic.get t.closed) do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue && Atomic.get t.closed then Mutex.unlock t.lock
    else begin
      Mutex.unlock t.lock;
      (* Coalescing window: keep the queued items admissible (they still
         count against [max_queue]) while concurrent submitters pile on. *)
      if t.batch_delay_s > 0.0 && not (Atomic.get t.closed) then Thread.delay t.batch_delay_s;
      Mutex.lock t.lock;
      let batch = ref [] in
      let n = ref 0 in
      while (not (Queue.is_empty t.queue)) && !n < t.max_batch do
        batch := Queue.pop t.queue :: !batch;
        incr n
      done;
      Mutex.unlock t.lock;
      dispatch t (List.rev !batch);
      loop ()
    end
  in
  loop ()

let create ~compute ?jobs ~max_queue ~max_batch ~batch_delay_s () =
  if max_queue < 1 then invalid_arg "Batcher.create: max_queue < 1";
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  if batch_delay_s < 0.0 then invalid_arg "Batcher.create: negative batch_delay_s";
  let t =
    {
      compute;
      jobs;
      max_queue;
      max_batch;
      batch_delay_s;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = Atomic.make false;
      worker = None;
    }
  in
  t.worker <- Some (Thread.create worker_loop t);
  t

let submit t ~obs ?deadline ~want_audit ~on_done () =
  Mutex.lock t.lock;
  let verdict =
    if Atomic.get t.closed then `Closed
    else if Queue.length t.queue >= t.max_queue then `Overloaded
    else begin
      Queue.push { obs; deadline; want_audit; on_done } t.queue;
      Obs.Telemetry.Histogram.observe Metrics.h_queue_depth
        (float_of_int (Queue.length t.queue));
      Condition.signal t.nonempty;
      `Queued
    end
  in
  Mutex.unlock t.lock;
  (match verdict with `Queued -> () | `Overloaded | `Closed -> Obs.Telemetry.Counter.incr Metrics.overloaded);
  verdict

let queue_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let drain t =
  Mutex.lock t.lock;
  Atomic.set t.closed true;
  Condition.broadcast t.nonempty;
  let worker = t.worker in
  t.worker <- None;
  Mutex.unlock t.lock;
  match worker with None -> () | Some th -> Thread.join th
