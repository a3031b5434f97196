(* Load generation.  One thread drives every connection ("lane") through
   a select loop, so generator threads never contend for the OCaml
   runtime lock; every timestamp comes from the one monotonic clock. *)

module Clock = Workload.Clock

(* One answered request: which frame, when it was due and sent, when its
   reply was complete, and the raw reply, decoded after the window. *)
type answer = { i : int; due : float; sent : float; done_ : float; payload : string }

let latency_ms a = 1000.0 *. (a.done_ -. a.due)

type mode =
  | Closed  (** Send the next request when the previous reply is in. *)
  | Paced of float
      (** Closed, and at least this many seconds between sends: a user
          with think time. *)
  | Open of float
      (** This many requests per second on schedule, replies or not;
          latency counts from the due time, so a stall charges every
          request it delays.  Needs in-order replies (the front's
          per-connection guarantee). *)

type lane = {
  conn : Wire.conn;
  mode : mode;
  next : unit -> (int * string) option;  (** (index, frame) until [None]. *)
  phase : float;  (** Open lanes: schedule offset, in send intervals. *)
  inflight : (int * float * float) Queue.t;  (** (index, due, sent). *)
  mutable sends : int;
  mutable last_send : float;
  mutable exhausted : bool;
  mutable answers : answer list;
}

let lane ?(phase = 0.0) conn mode next =
  {
    conn;
    mode;
    next;
    phase;
    inflight = Queue.create ();
    sends = 0;
    last_send = neg_infinity;
    exhausted = false;
    answers = [];
  }

(* [frames] in order from [cursor] on, until they run out or [stop] holds
   for the next index. *)
let sequence cursor frames ~stop () =
  let i = !cursor in
  if i >= Array.length frames || stop i then None
  else begin
    incr cursor;
    Some (i, frames.(i))
  end

(* Drive [lanes] until each is exhausted and has every reply in.  Open
   lanes stop by themselves after [seconds]; the others stop when their
   [next] says so.  Returns each lane's answers in send order. *)
let run ?(seconds = 0.0) lanes =
  let start = Clock.now () in
  let due l k =
    match l.mode with Open rate -> start +. ((float_of_int k +. l.phase) /. rate) | _ -> Clock.now ()
  in
  let ready l now =
    (not l.exhausted)
    &&
    match l.mode with
    | Open rate -> float_of_int l.sends < seconds *. rate && due l l.sends <= now
    | Closed -> Queue.is_empty l.inflight
    | Paced gap -> Queue.is_empty l.inflight && now >= l.last_send +. gap
  in
  let rec send_due l now =
    if ready l now then begin
      (match l.next () with
      | None -> l.exhausted <- true
      | Some (i, frame) ->
          let d = due l l.sends in
          Wire.send l.conn frame;
          l.last_send <- Clock.now ();
          Queue.push (i, d, l.last_send) l.inflight;
          l.sends <- l.sends + 1);
      send_due l now
    end
  in
  let rec drain l =
    match Wire.take l.conn with
    | Some payload ->
        let i, due, sent = Queue.pop l.inflight in
        l.answers <- { i; due; sent; done_ = Clock.now (); payload } :: l.answers;
        drain l
    | None -> ()
  in
  let active l =
    (not (Queue.is_empty l.inflight))
    || ((not l.exhausted)
       && match l.mode with Open rate -> float_of_int l.sends < seconds *. rate | _ -> true)
  in
  (* When the next send falls due, if any lane is waiting on a clock. *)
  let wake_at l =
    if l.exhausted then infinity
    else
      match l.mode with
      | Open rate when float_of_int l.sends < seconds *. rate -> due l l.sends
      | Paced gap when Queue.is_empty l.inflight -> l.last_send +. gap
      | _ -> infinity
  in
  while List.exists active lanes do
    let now = Clock.now () in
    List.iter (fun l -> send_due l now) lanes;
    let waiting = List.filter (fun l -> not (Queue.is_empty l.inflight)) lanes in
    let wake = List.fold_left (fun m l -> Float.min m (wake_at l)) infinity lanes in
    let timeout = if wake = infinity then 1.0 else Float.max 0.0 (wake -. Clock.now ()) in
    if waiting <> [] || wake < infinity then
      match Unix.select (List.map (fun l -> l.conn.Wire.fd) waiting) [] [] timeout with
      | readable, _, _ ->
          List.iter
            (fun l ->
              if List.mem l.conn.Wire.fd readable then begin
                Wire.fill l.conn;
                drain l
              end)
            waiting
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.map (fun l -> List.rev l.answers) lanes

(* Throughput over a set of answers: count over first send to last reply. *)
let rate answers =
  match answers with
  | [] -> 0.0
  | a :: _ ->
      let t0 = List.fold_left (fun m a -> Float.min m a.sent) a.sent answers in
      let t1 = List.fold_left (fun m a -> Float.max m a.done_) a.done_ answers in
      float_of_int (List.length answers) /. (t1 -. t0)

let latencies answers = Array.of_list (List.map latency_ms answers)

(* [stat] of the answers completing in each of [slices] equal stretches
   of the window, then the median over stretches: a burst of outside
   load moves one stretch, not the figure.  [stat] gets the stretch's
   answers and its length in seconds. *)
let sliced ~slices stat answers =
  match answers with
  | [] -> nan
  | a :: _ ->
      let t0 = List.fold_left (fun m a -> Float.min m a.sent) a.sent answers in
      let t1 = List.fold_left (fun m a -> Float.max m a.done_) a.done_ answers in
      let width = (t1 -. t0) /. float_of_int slices in
      let buckets = Array.make slices [] in
      List.iter
        (fun a ->
          let s = min (slices - 1) (int_of_float ((a.done_ -. t0) /. width)) in
          buckets.(s) <- a :: buckets.(s))
        answers;
      Array.to_list buckets
      |> List.filter (( <> ) [])
      |> List.map (fun b -> stat b width)
      |> Array.of_list |> Workload.median

let sliced_rate ~slices = sliced ~slices (fun b width -> float_of_int (List.length b) /. width)
let sliced_pct ~slices p = sliced ~slices (fun b _ -> Workload.pct p (latencies b))

(* The sequential, untimed warm-up every workload uses. *)
let closed conn next = List.hd (run [ lane conn Closed next ])
