(* Telemetry substrate for the localization pipeline.

   Recording is designed around the batch engine's domain pool:

   - Counters are sharded over a small array of atomics indexed by the
     recording domain's id, so concurrent increments from different
     domains almost never touch the same cache line.  Reads sum the
     shards.  Because every increment happens exactly once per logical
     event regardless of which domain performs it, aggregate counter
     values are deterministic across [--jobs] settings (for events whose
     *count* is itself deterministic — see [deterministic] below).
   - Spans keep their state in domain-local storage: a per-domain stack
     for nesting and a per-domain table of (path -> count/total/max).
     The hot path takes no lock; tables register themselves once per
     domain and are merged at [snapshot] time.
   - The audit log is a domain-local collector armed by [Audit.collect],
     so concurrent localizations never interleave their entries.

   Everything is gated on one atomic flag: when telemetry is disabled,
   every recording operation is a single load-and-branch (the no-op
   sink), which the bench asserts is free at batch scale. *)

let enabled_flag = Atomic.make false
let is_enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* One mutex for all registry manipulation (counter/histogram creation,
   per-domain span-table registration, snapshot, reset).  Never taken on
   a recording hot path. *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* The one clock every timing here reads: CLOCK_MONOTONIC through
   bechamel.  [gettimeofday] steps when the system clock is set, and
   [Sys.time] is process CPU time, which over-reports while other domains
   run. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let domain_slot mask = (Domain.self () :> int) land mask

(* Shard arrays of atomics, with each box forced onto its own cache line.
   [Array.init shards (fun _ -> Atomic.make 0)] packs the boxed ints
   back-to-back on the minor heap — four to eight per 64-byte line — so
   "per-domain" shards still false-share.  OCaml 5.1 has no
   [Atomic.make_contended], so instead a dead spacer block is allocated
   between consecutive boxes; [Sys.opaque_identity] keeps flambda from
   eliding it.  The spacer is garbage immediately, but the boxes it
   separated keep their relative spacing when the GC evacuates them in
   allocation order. *)
let padded_atomics n =
  Array.init n (fun _ ->
      let a = Atomic.make 0 in
      ignore (Sys.opaque_identity (Array.make 8 0));
      a)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = {
    domain : string;
    name : string;
    deterministic : bool;
    slots : int Atomic.t array;
  }

  let shards = 16 (* power of two; shard index is domain id masked *)
  let registry : t list ref = ref []

  let make ?(deterministic = true) ~domain name =
    let t = { domain; name; deterministic; slots = padded_atomics shards } in
    locked (fun () -> registry := t :: !registry);
    t

  let add t n =
    if Atomic.get enabled_flag then
      ignore (Atomic.fetch_and_add t.slots.(domain_slot (shards - 1)) n)

  let incr t = add t 1
  let value t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.slots
  let reset t = Array.iter (fun a -> Atomic.set a 0) t.slots
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Log-bucketed: bucket [i] counts observations in [2^(i-offset-1),
     2^(i-offset)), i.e. one bucket per binary order of magnitude.  The
     offset places 2^-20 (about a microsecond when observing seconds) in
     bucket 0; everything below clamps to bucket 0, everything above
     2^(buckets-offset) clamps to the last. *)
  type t = {
    domain : string;
    name : string;
    unit_ : string;
    buckets : int Atomic.t array;
    sum_micro : int Atomic.t; (* running sum in 1e-6 units of [unit_] *)
  }

  let n_buckets = 64
  let offset = 20
  let registry : t list ref = ref []

  let make ?(unit_ = "s") ~domain name =
    let t =
      {
        domain;
        name;
        unit_;
        buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
        sum_micro = Atomic.make 0;
      }
    in
    locked (fun () -> registry := t :: !registry);
    t

  let bucket_index v =
    if v <= 0.0 then 0
    else begin
      let _, e = Float.frexp v in
      (* v in [2^(e-1), 2^e) *)
      let i = e + offset in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
    end

  let observe t v =
    if Atomic.get enabled_flag then begin
      ignore (Atomic.fetch_and_add t.buckets.(bucket_index v) 1);
      ignore (Atomic.fetch_and_add t.sum_micro (int_of_float (v *. 1e6)))
    end

  let count t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.buckets
  let sum t = float_of_int (Atomic.get t.sum_micro) *. 1e-6

  let reset t =
    Array.iter (fun a -> Atomic.set a 0) t.buckets;
    Atomic.set t.sum_micro 0

  (* Lower edge of bucket [i], in the histogram's unit. *)
  let bucket_floor i = if i = 0 then 0.0 else Float.ldexp 1.0 (i - offset - 1)
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type agg = {
    mutable count : int;
    mutable total_ns : int;
    mutable max_ns : int;
    (* GC words allocated while the span was open on its domain; minor
       words are (close to) a pure function of the work done, major words
       include promotion so they track GC pressure. *)
    mutable minor_w : int;
    mutable major_w : int;
  }

  type dstate = {
    mutable stack : string list; (* current path, innermost first *)
    table : (string, agg) Hashtbl.t;
  }

  (* All domain states ever created, for merging at snapshot time.  A
     state outlives its domain (batch workers are short-lived); the data
     they recorded must survive them. *)
  let states : dstate list ref = ref []

  let key =
    Domain.DLS.new_key (fun () ->
        let st = { stack = []; table = Hashtbl.create 64 } in
        locked (fun () -> states := st :: !states);
        st)

  let record st path dt dminor dmajor =
    let agg =
      match Hashtbl.find_opt st.table path with
      | Some a -> a
      | None ->
          let a = { count = 0; total_ns = 0; max_ns = 0; minor_w = 0; major_w = 0 } in
          Hashtbl.add st.table path a;
          a
    in
    agg.count <- agg.count + 1;
    agg.total_ns <- agg.total_ns + dt;
    if dt > agg.max_ns then agg.max_ns <- dt;
    agg.minor_w <- agg.minor_w + dminor;
    agg.major_w <- agg.major_w + dmajor
end

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = Domain.DLS.get Span.key in
    let path = match st.Span.stack with [] -> name | parent :: _ -> parent ^ "/" ^ name in
    st.Span.stack <- path :: st.Span.stack;
    (* [Gc.counters] reads the current domain's allocation cursor — a few
       loads plus one small tuple; nested spans double-count their parent's
       words by design, mirroring how nested spans double-count time. *)
    let minor0, _, major0 = Gc.counters () in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        (match st.Span.stack with _ :: rest -> st.Span.stack <- rest | [] -> ());
        let dt = now_ns () - t0 in
        let minor1, _, major1 = Gc.counters () in
        Span.record st path dt
          (int_of_float (minor1 -. minor0))
          (int_of_float (major1 -. major0)))
      f
  end

(* ------------------------------------------------------------------ *)
(* Constraint audit log                                                *)
(* ------------------------------------------------------------------ *)

module Audit = struct
  type entry = {
    source : string;
    weight : float;
    polarity : string;
    cells_before : int;
    cells_after : int;
    splits : int;
    dropped : int;
    shrank : bool;
  }

  (* Domain-local so concurrent localizations on the batch pool cannot
     interleave their logs.  [None] (the default) records nothing. *)
  let key : entry list ref option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let collecting () = Option.is_some !(Domain.DLS.get key)

  let record e =
    match !(Domain.DLS.get key) with Some acc -> acc := e :: !acc | None -> ()

  let collect f =
    let cell = Domain.DLS.get key in
    let saved = !cell in
    let acc = ref [] in
    cell := Some acc;
    let r = Fun.protect ~finally:(fun () -> cell := saved) f in
    (r, List.rev !acc)
end

(* ------------------------------------------------------------------ *)
(* Snapshot and export                                                 *)
(* ------------------------------------------------------------------ *)

type counter_view = {
  c_domain : string;
  c_name : string;
  c_value : int;
  c_deterministic : bool;
}

type span_view = {
  s_path : string;
  s_count : int;
  s_total_s : float;
  s_max_s : float;
  s_minor_words : int;
  s_major_words : int;
}

type histogram_view = {
  h_domain : string;
  h_name : string;
  h_unit : string;
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list; (* (bucket lower edge, count), nonzero only *)
}

type snapshot = {
  counters : counter_view list;
  spans : span_view list;
  histograms : histogram_view list;
}

let snapshot () =
  let counters, histograms, states =
    locked (fun () -> (!Counter.registry, !Histogram.registry, !Span.states))
  in
  let counters =
    List.filter_map
      (fun (c : Counter.t) ->
        let v = Counter.value c in
        if v = 0 then None
        else
          Some
            {
              c_domain = c.Counter.domain;
              c_name = c.Counter.name;
              c_value = v;
              c_deterministic = c.Counter.deterministic;
            })
      counters
    |> List.sort (fun a b ->
           match compare a.c_domain b.c_domain with
           | 0 -> compare a.c_name b.c_name
           | c -> c)
  in
  let merged : (string, Span.agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (st : Span.dstate) ->
      Hashtbl.iter
        (fun path (a : Span.agg) ->
          match Hashtbl.find_opt merged path with
          | Some m ->
              m.Span.count <- m.Span.count + a.Span.count;
              m.Span.total_ns <- m.Span.total_ns + a.Span.total_ns;
              if a.Span.max_ns > m.Span.max_ns then m.Span.max_ns <- a.Span.max_ns;
              m.Span.minor_w <- m.Span.minor_w + a.Span.minor_w;
              m.Span.major_w <- m.Span.major_w + a.Span.major_w
          | None ->
              Hashtbl.add merged path
                {
                  Span.count = a.Span.count;
                  total_ns = a.Span.total_ns;
                  max_ns = a.Span.max_ns;
                  minor_w = a.Span.minor_w;
                  major_w = a.Span.major_w;
                })
        st.Span.table)
    states;
  let spans =
    Hashtbl.fold
      (fun path (a : Span.agg) acc ->
        {
          s_path = path;
          s_count = a.Span.count;
          s_total_s = float_of_int a.Span.total_ns *. 1e-9;
          s_max_s = float_of_int a.Span.max_ns *. 1e-9;
          s_minor_words = a.Span.minor_w;
          s_major_words = a.Span.major_w;
        }
        :: acc)
      merged []
    |> List.sort (fun a b -> compare a.s_path b.s_path)
  in
  let histograms =
    List.filter_map
      (fun (h : Histogram.t) ->
        let count = Histogram.count h in
        if count = 0 then None
        else begin
          let buckets = ref [] in
          for i = Histogram.n_buckets - 1 downto 0 do
            let c = Atomic.get h.Histogram.buckets.(i) in
            if c > 0 then buckets := (Histogram.bucket_floor i, c) :: !buckets
          done;
          Some
            {
              h_domain = h.Histogram.domain;
              h_name = h.Histogram.name;
              h_unit = h.Histogram.unit_;
              h_count = count;
              h_sum = Histogram.sum h;
              h_buckets = !buckets;
            }
        end)
      histograms
    |> List.sort (fun a b ->
           match compare a.h_domain b.h_domain with
           | 0 -> compare a.h_name b.h_name
           | c -> c)
  in
  { counters; spans; histograms }

let total_events s =
  List.fold_left (fun acc c -> acc + c.c_value) 0 s.counters
  + List.fold_left (fun acc sp -> acc + sp.s_count) 0 s.spans
  + List.fold_left (fun acc h -> acc + h.h_count) 0 s.histograms

(* The cross-[--jobs] determinism contract, as a comparable value:
   counter totals (minus the ones declared scheduling-dependent, e.g.
   racy cache misses) and span *counts* (never durations). *)
let deterministic_signature s =
  List.filter_map
    (fun c ->
      if c.c_deterministic then Some (c.c_domain ^ "." ^ c.c_name, c.c_value) else None)
    s.counters
  @ List.map (fun sp -> ("span:" ^ sp.s_path, sp.s_count)) s.spans

let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Float.to_int (Float.round (Float.max 1.0 (q *. float_of_int h.h_count))) in
    let rec go seen = function
      | [] -> ( match List.rev h.h_buckets with (lo, _) :: _ -> 2.0 *. lo | [] -> 0.0)
      | (lo, c) :: rest ->
          if seen + c >= rank then if lo = 0.0 then Histogram.bucket_floor 1 else 2.0 *. lo
          else go (seen + c) rest
    in
    go 0 h.h_buckets
  end

let reset () =
  locked (fun () ->
      List.iter Counter.reset !Counter.registry;
      List.iter Histogram.reset !Histogram.registry;
      List.iter (fun (st : Span.dstate) -> Hashtbl.reset st.Span.table) !Span.states)

(* ---- JSON (hand-rolled; the toolchain has no JSON dependency) ---- *)

let json_escape buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let json_list buf render = function
  | [] -> Buffer.add_string buf "[]"
  | first :: rest ->
      Buffer.add_char buf '[';
      render first;
      List.iter
        (fun x ->
          Buffer.add_char buf ',';
          render x)
        rest;
      Buffer.add_char buf ']'

let to_json s =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"counters\":";
  json_list buf
    (fun c ->
      Buffer.add_string buf "{\"domain\":\"";
      json_escape buf c.c_domain;
      Buffer.add_string buf "\",\"name\":\"";
      json_escape buf c.c_name;
      Buffer.add_string buf
        (Printf.sprintf "\",\"value\":%d,\"deterministic\":%b}" c.c_value c.c_deterministic))
    s.counters;
  Buffer.add_string buf ",\"spans\":";
  json_list buf
    (fun sp ->
      Buffer.add_string buf "{\"path\":\"";
      json_escape buf sp.s_path;
      Buffer.add_string buf
        (Printf.sprintf
           "\",\"count\":%d,\"total_s\":%.6f,\"max_s\":%.6f,\"minor_words\":%d,\"major_words\":%d}"
           sp.s_count sp.s_total_s sp.s_max_s sp.s_minor_words sp.s_major_words))
    s.spans;
  Buffer.add_string buf ",\"histograms\":";
  json_list buf
    (fun h ->
      Buffer.add_string buf "{\"domain\":\"";
      json_escape buf h.h_domain;
      Buffer.add_string buf "\",\"name\":\"";
      json_escape buf h.h_name;
      Buffer.add_string buf
        (Printf.sprintf "\",\"unit\":\"%s\",\"count\":%d,\"sum\":%.6f,\"buckets\":" h.h_unit
           h.h_count h.h_sum);
      json_list buf
        (fun (lo, c) -> Buffer.add_string buf (Printf.sprintf "[%.9g,%d]" lo c))
        h.h_buckets;
      Buffer.add_char buf '}')
    s.histograms;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ---- Human-readable tree ---- *)

let span_depth path =
  String.fold_left (fun acc ch -> if ch = '/' then acc + 1 else acc) 0 path

let span_leaf path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let pp_tree fmt s =
  Format.fprintf fmt "telemetry@.";
  if s.counters <> [] then begin
    Format.fprintf fmt "  counters@.";
    let last_domain = ref "" in
    List.iter
      (fun c ->
        if c.c_domain <> !last_domain then begin
          last_domain := c.c_domain;
          Format.fprintf fmt "    %s@." c.c_domain
        end;
        Format.fprintf fmt "      %-28s %12d%s@." c.c_name c.c_value
          (if c.c_deterministic then "" else "  (scheduling-dependent)"))
      s.counters
  end;
  if s.spans <> [] then begin
    Format.fprintf fmt "  spans%42s %10s %10s %11s@." "count" "total" "max" "minor-words";
    List.iter
      (fun sp ->
        let indent = String.make (4 + (2 * span_depth sp.s_path)) ' ' in
        let label = indent ^ span_leaf sp.s_path in
        Format.fprintf fmt "%-45s %7d %9.3fs %9.3fs %11d@." label sp.s_count sp.s_total_s
          sp.s_max_s sp.s_minor_words)
      s.spans
  end;
  if s.histograms <> [] then begin
    Format.fprintf fmt "  histograms@.";
    List.iter
      (fun h ->
        Format.fprintf fmt "    %s.%s: %d obs, sum %.3f %s, mean %.4f %s@." h.h_domain
          h.h_name h.h_count h.h_sum h.h_unit
          (h.h_sum /. float_of_int h.h_count)
          h.h_unit;
        List.iter
          (fun (lo, c) -> Format.fprintf fmt "      >= %-12.6g %10d@." lo c)
          h.h_buckets)
      s.histograms
  end
