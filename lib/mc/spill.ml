type record = { off : int; key_len : int; data_len : int }

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  index : (string, record list) Hashtbl.t;
  mutable count : int;
  mutable size : int;  (** bytes appended; also the next record's offset *)
}

(* A process may hold several stores at once; the pid keeps worker
   processes apart. *)
let counter = ref 0

let create ~dir =
  let path =
    Filename.concat dir
      (incr counter;
       Printf.sprintf "dedup-spill.%d.%d" (Unix.getpid ()) !counter)
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600 in
  { path; fd = Some fd; index = Hashtbl.create 1024; count = 0; size = 0 }

let fd_exn t =
  match t.fd with
  | Some fd -> fd
  | None -> invalid_arg "Spill: store is closed"

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let read_at fd ~off ~len =
  let buf = Bytes.create len in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then begin
      let n = Unix.read fd buf pos (len - pos) in
      if n = 0 then failwith "Spill: short read (truncated backing file)";
      go (pos + n)
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let add t ~key ~data =
  let fd = fd_exn t in
  let rec_off = t.size in
  ignore (Unix.lseek fd rec_off Unix.SEEK_SET);
  write_all fd key;
  write_all fd data;
  t.size <- t.size + String.length key + String.length data;
  let digest = Digest.string key in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt t.index digest) in
  Hashtbl.replace t.index digest
    ({ off = rec_off; key_len = String.length key; data_len = String.length data }
    :: bucket);
  t.count <- t.count + 1

let find t ~key =
  let fd = fd_exn t in
  match Hashtbl.find_opt t.index (Digest.string key) with
  | None -> None
  | Some bucket ->
      let rec scan = function
        | [] -> None
        | r :: rest ->
            if
              r.key_len = String.length key
              && String.equal (read_at fd ~off:r.off ~len:r.key_len) key
            then Some (read_at fd ~off:(r.off + r.key_len) ~len:r.data_len)
            else scan rest
      in
      scan bucket

let entries t = t.count
let bytes_on_disk t = t.size

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Sys.remove t.path with Sys_error _ -> ())
