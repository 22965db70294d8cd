(* Buffered, byte-counting socket connection: one frame-at-a-time
   blocking reads on top of a growable receive buffer (a single read(2)
   often delivers several pipelined frames — the parser drains them all
   before touching the socket again), and a send buffer flushed once per
   batch of frames. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let parse_addr s =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None -> None
    | Some i ->
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      (match int_of_string_opt port with
       | Some port when port > 0 && port < 65536 && host <> "" ->
         Some (Tcp { host; port })
       | _ -> None)
  in
  if s = "" then None
  else
    match String.index_opt s ':' with
    | Some 4 when String.sub s 0 4 = "unix" ->
      let p = String.sub s 5 (String.length s - 5) in
      if p = "" then None else Some (Unix_path p)
    | Some 3 when String.sub s 0 3 = "tcp" ->
      tcp (String.sub s 4 (String.length s - 4))
    | Some _ -> tcp s  (* bare host:port *)
    | None -> Some (Unix_path s)  (* bare filesystem path *)

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
         with Not_found | Invalid_argument _ ->
           failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (inet, port)

let domain_of = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* Turn Nagle's algorithm off on TCP sockets.  With it on, a write made
   while earlier bytes are still unacknowledged is held back until the
   ACK arrives, and a peer that has nothing to send back delays that ACK
   by up to 40 ms: a pipelined burst whose replies leave in two writes
   stalls for the whole delay.  Unix-domain sockets have no such delay. *)
let set_nodelay addr fd =
  match addr with
  | Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
  | Unix_path _ -> ()

type t = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rpos : int;  (* parse position *)
  mutable rlen : int;  (* end of valid bytes *)
  wbuf : Buf.t;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable closed : bool;
}

(* A peer that vanishes between our poll and our write delivers SIGPIPE,
   whose default disposition kills the process; every socket user wants
   the EPIPE error instead, so the first connection turns the signal
   off, process-wide (no-op on platforms without it). *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let create fd =
  Lazy.force ignore_sigpipe;
  { fd;
    rbuf = Bytes.create 8192;
    rpos = 0;
    rlen = 0;
    wbuf = Buf.create ~cap:8192 ();
    bytes_in = 0;
    bytes_out = 0;
    closed = false }

let fd t = t.fd

let bytes_in t = t.bytes_in

let bytes_out t = t.bytes_out

let send_buffer t = t.wbuf

let pending_out t = Buf.length t.wbuf

let set_nonblock t = Unix.set_nonblock t.fd

let flush t =
  while Buf.length t.wbuf > 0 do
    let n =
      Unix.write t.fd (Buf.bytes t.wbuf) (Buf.offset t.wbuf)
        (Buf.length t.wbuf)
    in
    Buf.consume t.wbuf n;
    t.bytes_out <- t.bytes_out + n
  done

(* One non-blocking write attempt against the pending output. *)
let try_flush t =
  if Buf.length t.wbuf = 0 then `Flushed
  else
    match
      Unix.write t.fd (Buf.bytes t.wbuf) (Buf.offset t.wbuf)
        (Buf.length t.wbuf)
    with
    | 0 -> `Partial
    | n ->
      Buf.consume t.wbuf n;
      t.bytes_out <- t.bytes_out + n;
      if Buf.length t.wbuf = 0 then `Flushed else `Partial
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                                 _, _) ->
      `Partial
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF),
                                 _, _) ->
      `Closed

(* Make room for [need] more bytes past [rlen], compacting the consumed
   prefix first and growing only when compaction isn't enough. *)
let ensure_space t need =
  let cap = Bytes.length t.rbuf in
  if t.rlen + need > cap then begin
    let live = t.rlen - t.rpos in
    if live + need <= cap then begin
      Bytes.blit t.rbuf t.rpos t.rbuf 0 live;
      t.rpos <- 0;
      t.rlen <- live
    end
    else begin
      let cap' = max (live + need) (cap * 2) in
      let nb = Bytes.create cap' in
      Bytes.blit t.rbuf t.rpos nb 0 live;
      t.rbuf <- nb;
      t.rpos <- 0;
      t.rlen <- live
    end
  end

(* One blocking read(2); returns the byte count (0 = peer closed). *)
let refill t =
  ensure_space t 4096;
  let n =
    try Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen)
    with
    | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> 0
  in
  if n > 0 then begin
    t.rlen <- t.rlen + n;
    t.bytes_in <- t.bytes_in + n
  end;
  n

(* One non-blocking read(2) for reactor loops. *)
let try_refill t =
  ensure_space t 4096;
  match Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) with
  | 0 -> `Eof
  | n ->
    t.rlen <- t.rlen + n;
    t.bytes_in <- t.bytes_in + n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                               _, _) ->
    `Would_block
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF),
                               _, _) ->
    `Eof

(* The next complete frame already buffered, if any. *)
let buffered_frame t =
  match Frame.frame_length t.rbuf ~off:t.rpos ~avail:(t.rlen - t.rpos) with
  | `Error e -> Some (Error (`Frame e))
  | `Need_more -> None
  | `Length len ->
    if t.rlen - t.rpos - 4 < len then None
    else begin
      let payload = Bytes.sub_string t.rbuf (t.rpos + 4) len in
      t.rpos <- t.rpos + 4 + len;
      if t.rpos = t.rlen then begin
        t.rpos <- 0;
        t.rlen <- 0
      end;
      Some (Ok payload)
    end

let rec recv t =
  match buffered_frame t with
  | Some r -> r
  | None ->
    (* a frame header promising more than fits is caught by
       [frame_length] before we ever try to buffer it *)
    if refill t = 0 then
      if t.rlen - t.rpos = 0 then Error `Eof
      else Error (`Frame Frame.Truncated)
    else recv t

(* At least one frame (blocking), plus every further complete frame
   already in the buffer — the batch a pipelining peer flushed at once.
   A framing error after [k] good frames surfaces on the next call. *)
let recv_batch t =
  match recv t with
  | Error _ as e -> e
  | Ok first ->
    let rec drain acc =
      match buffered_frame t with
      | Some (Ok p) -> drain (p :: acc)
      | Some (Error _) | None -> List.rev acc
    in
    Ok (drain [ first ])

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end
