(* A minimal loopback HTTP/1.1 client.  The server answers one request
   per connection (Connection: close), so a request is
   connect → send → read to EOF → parse.  Each call opens exactly one
   connection and closes it before returning, so a closed-loop client
   never holds more than one. *)

type response = {
  status : int;
  trace_id : string;  (** the X-Ekg-Trace-Id header, "" when absent *)
  body : string;
}

let send_all sock data =
  let len = String.length data in
  let rec go off =
    if off < len then go (off + Unix.write_substring sock data off (len - off))
  in
  go 0

let read_all sock =
  let acc = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = Unix.read sock chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes acc chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents acc

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

let parse_response raw =
  match find_sub raw "\r\n\r\n" 0 with
  | None -> Error "missing header terminator"
  | Some head_end -> (
    let head = String.sub raw 0 head_end in
    let body = String.sub raw (head_end + 4) (String.length raw - head_end - 4) in
    match String.split_on_char '\r' head with
    | [] -> Error "empty response"
    | status_line :: headers -> (
      match String.split_on_char ' ' status_line with
      | _ :: code :: _ when int_of_string_opt code <> None ->
        let trace_id =
          List.find_map
            (fun line ->
              let line = String.trim line in
              match String.index_opt line ':' with
              | Some i
                when String.lowercase_ascii (String.sub line 0 i) = "x-ekg-trace-id" ->
                Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
              | _ -> None)
            headers
        in
        Ok
          {
            status = int_of_string code;
            trace_id = Option.value trace_id ~default:"";
            body;
          }
      | _ -> Error ("malformed status line: " ^ status_line)))

let request_text ~port meth target body =
  let buf = Buffer.create (128 + String.length body) in
  Printf.bprintf buf "%s %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nConnection: close\r\n"
    meth target port;
  if meth <> "GET" then Printf.bprintf buf "Content-Length: %d\r\n" (String.length body);
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

(* [Error] is a transport failure: refused, reset or unparsable *)
let request ~port meth target body =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | sock ->
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          send_all sock (request_text ~port meth target body);
          parse_response (read_all sock)
        with Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e))

let urlencode s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char buf c
      | c -> Printf.bprintf buf "%%%02X" (Char.code c))
    s;
  Buffer.contents buf
