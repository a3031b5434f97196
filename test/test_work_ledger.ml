(* Work ledger: deterministic work counts pinned in tier-1.

   Timing on a shared host drifts too much for a test to gate on, but the
   work behind an estimate is exact.  For worlds 7 and 11 on the
   interleaved split (Eval.Interleaved, probe seed 1), one fresh round of
   cold inputs (RTTs and a WHOIS hint) and one of study inputs (plus
   traceroutes and router RTTs) are localized with sequential
   [localize_one].  The ledger holds, per world and input kind, the totals
   of every deterministic [clip], [region] and [solver] counter, and one
   digest of every estimate's wire fingerprint.

   The digest must match.  A count that rises is a work regression and
   fails; a count that falls fails too, so the file is regenerated and its
   diff records the gain:

     OCTANT_LEDGER_WRITE=$PWD/test/golden/work_ledger.txt dune test *)

module T = Obs.Telemetry
module Protocol = Octant_serve.Protocol
module Json = Octant_serve.Json

let golden_path = "golden/work_ledger.txt"
let worlds = [ 7; 11 ]
let domains = [ "clip"; "region"; "solver" ]

let fingerprint est = Json.to_string (Protocol.ok_reply ~id:Json.Null ~cached:false ~audit:None est)

(* (key, count) lines in a fixed order, and the digest line. *)
let measure () =
  let fingerprints = Buffer.create 65536 in
  let rows =
    List.concat_map
      (fun world ->
        let fx = Eval.Interleaved.make ~world ~seed:1 in
        let ctx = Eval.Interleaved.context fx in
        let cold = Eval.Interleaved.cold_observations fx in
        let study = Eval.Interleaved.study_observations fx in
        List.concat_map
          (fun (kind, inputs) ->
            T.reset ();
            Array.iter
              (fun obs ->
                match Octant.Pipeline.localize_one ctx obs with
                | Ok est -> Buffer.add_string fingerprints (fingerprint est)
                | Error e -> Buffer.add_string fingerprints ("error " ^ e))
              inputs;
            List.filter_map
              (fun (c : T.counter_view) ->
                if c.T.c_deterministic && List.mem c.T.c_domain domains then
                  Some (Printf.sprintf "world %d %s %s.%s" world kind c.T.c_domain c.T.c_name, c.T.c_value)
                else None)
              (T.snapshot ()).T.counters)
          [ ("cold", cold); ("study", study) ])
      worlds
  in
  (rows, Digest.to_hex (Digest.string (Buffer.contents fingerprints)))

let with_telemetry f =
  let was = T.is_enabled () in
  T.enable ();
  Fun.protect ~finally:(fun () -> if not was then T.disable ()) f

let read_ledger path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go rows digest =
    match input_line ic with
    | exception End_of_file -> (List.rev rows, digest)
    | line -> (
        match String.split_on_char ' ' line with
        | [ "digest"; d ] -> go rows (Some d)
        | [ "world"; w; kind; counter; n ] ->
            go ((String.concat " " [ "world"; w; kind; counter ], int_of_string n) :: rows) digest
        | _ -> go rows digest)
  in
  go [] None

let test_ledger () =
  let rows, digest = with_telemetry measure in
  match Sys.getenv_opt "OCTANT_LEDGER_WRITE" with
  | Some path ->
      let oc = open_out path in
      output_string oc
        "# Deterministic work per world and input kind (test/test_work_ledger.ml).\n";
      List.iter (fun (k, n) -> Printf.fprintf oc "%s %d\n" k n) rows;
      Printf.fprintf oc "digest %s\n" digest;
      close_out oc;
      Printf.printf "work ledger written to %s\n" path
  | None ->
      let expected, expected_digest = read_ledger golden_path in
      let count table k = Option.value (List.assoc_opt k table) ~default:0 in
      let keys = List.sort_uniq compare (List.map fst expected @ List.map fst rows) in
      let changes =
        List.filter_map
          (fun k ->
            let e = count expected k and g = count rows k in
            if g > e then Some (Printf.sprintf "  rose: %s %d -> %d" k e g)
            else if g < e then Some (Printf.sprintf "  fell: %s %d -> %d" k e g)
            else None)
          keys
      in
      if changes <> [] then
        Alcotest.failf
          "work counts changed (a rise is a regression; regenerate with OCTANT_LEDGER_WRITE \
           to record a gain):\n%s"
          (String.concat "\n" changes);
      Alcotest.(check (option string)) "digest of every estimate" expected_digest (Some digest)

let suite =
  [ ("work-ledger", [ Alcotest.test_case "counts and estimates match the ledger" `Slow test_ledger ]) ]
