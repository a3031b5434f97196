(* Client side of the daemon's wire protocol: connections in either
   codec, buffered frame reading, request encoding and reply decoding. *)

module Json = Octant_serve.Json
module Protocol = Octant_serve.Protocol

type codec = Json_lines | Octb

let coord_json (c : Geo.Geodesy.coord) =
  Json.Obj [ ("lat", Json.num c.Geo.Geodesy.lat); ("lon", Json.num c.Geo.Geodesy.lon) ]

let opt name f = function None -> [] | Some v -> [ (name, f v) ]
let floats a = Json.List (Array.to_list (Array.map Json.num a))

(* The JSON frame Protocol.parse_request reads back as [req]. *)
let request_json = function
  | Protocol.Localize r ->
      Json.Obj
        ([ ("id", r.Protocol.id); ("rtt_ms", floats r.Protocol.rtt_ms) ]
        @ opt "whois" coord_json r.Protocol.whois)
  | Protocol.Update u ->
      Json.Obj
        ([
           ("op", Json.Str "update");
           ("id", u.Protocol.u_id);
           ("target_id", Json.Str u.Protocol.u_target);
           ("epoch", Json.Num (float_of_int u.Protocol.u_epoch));
         ]
        @ opt "rtt_ms" floats u.Protocol.u_base
        @ (if u.Protocol.u_delta = [||] then []
           else
             [
               ( "delta",
                 Json.List
                   (Array.to_list
                      (Array.map
                         (fun (i, r) -> Json.List [ Json.Num (float_of_int i); Json.num r ])
                         u.Protocol.u_delta)) );
             ])
        @ opt "retire_upto" (fun e -> Json.Num (float_of_int e)) u.Protocol.u_retire_upto
        @ opt "whois" coord_json u.Protocol.u_whois)
  | Protocol.Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Protocol.Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Protocol.Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let encode codec req =
  match codec with
  | Json_lines -> Json.to_string (request_json req) ^ "\n"
  | Octb -> Protocol.Binary.frame (Protocol.Binary.encode_request req)

let decode codec payload =
  match codec with
  | Json_lines -> Json.of_string payload
  | Octb -> Protocol.Binary.decode_reply payload

type conn = {
  fd : Unix.file_descr;
  codec : codec;
  mutable buf : Bytes.t;
  mutable lo : int;  (** First unconsumed byte. *)
  mutable hi : int;  (** One past the last received byte. *)
}

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send c frame = write_all c.fd frame 0 (String.length frame)

let connect codec port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let c = { fd; codec; buf = Bytes.create 65536; lo = 0; hi = 0 } in
  if codec = Octb then send c Protocol.Binary.magic;
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One complete frame's payload from the bytes already received. *)
let take c =
  match c.codec with
  | Json_lines ->
      let rec scan i =
        if i >= c.hi then None
        else if Bytes.get c.buf i = '\n' then begin
          let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
          c.lo <- i + 1;
          Some line
        end
        else scan (i + 1)
      in
      scan c.lo
  | Octb ->
      let h = Protocol.Binary.header_length in
      if c.hi - c.lo < h then None
      else
        let len = Protocol.Binary.decode_length (Bytes.sub_string c.buf c.lo h) in
        if c.hi - c.lo < h + len then None
        else begin
          let payload = Bytes.sub_string c.buf (c.lo + h) len in
          c.lo <- c.lo + h + len;
          Some payload
        end

(* Read whatever the socket has (blocking until at least one byte). *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 bigger 0 c.hi;
    c.buf <- bigger
  end;
  let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
  if n = 0 then failwith "server closed the connection";
  c.hi <- c.hi + n

let rec recv c = match take c with Some payload -> payload | None -> fill c; recv c

let recv_json c =
  match decode c.codec (recv c) with Ok j -> j | Error e -> failwith ("undecodable reply: " ^ e)

(* One request, one reply: for control frames and untimed passes. *)
let call c req =
  send c (encode c.codec req);
  recv_json c

(* Send every frame, then read as many replies (in whatever order the
   server answers): an untimed warm-up the server may batch. *)
let pipeline c frames =
  Array.iter (send c) frames;
  Array.iter (fun _ -> ignore (recv c)) frames

let stats port =
  let c = connect Json_lines port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> call c Protocol.Stats)

(* Numeric member at a path of object keys, 0 when absent. *)
let num json path =
  let rec go j = function
    | [] -> Option.value ~default:0.0 (Json.to_float j)
    | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go json path
