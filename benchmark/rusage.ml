(* One child process, spawned and reaped with exact accounting. *)

external wait4 : int -> int * int * int * int = "ipibench_wait4"

external now : unit -> (float[@unboxed])
  = "ipibench_now_byte" "ipibench_now"
[@@noalloc]

type status = Exited of int | Signaled of int

let pp_status ppf = function
  | Exited c -> Format.fprintf ppf "exit %d" c
  | Signaled s -> Format.fprintf ppf "killed by signal %d" s

type t = {
  status : status;
  wall_s : float;  (** spawn to reap, monotonic clock *)
  cpu_s : float;  (** user + system, reaped descendants included *)
  peak_rss_mb : float;  (** largest resident set in the reaped tree *)
}

let rec reap pid =
  match wait4 pid with
  | 0, code, cpu, rss -> (Exited code, cpu, rss)
  | 1, signal, cpu, rss -> (Signaled signal, cpu, rss)
  | 2, _, _, _ -> reap pid (* EINTR: the watchdog handler has run *)
  | _, errno, _, _ -> failwith (Printf.sprintf "wait4 %d: errno %d" pid errno)

(* [argv.(0)] is the program. Standard output and error go to the given
   files; standard input is an empty pipe. A child still running after
   [timeout] seconds is killed, so one hung process cannot hold the
   benchmark past its own deadline; it then reports [Signaled]. *)
let run ?(timeout = 30) ~argv ~stdout ~stderr () =
  let open_out path =
    Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let out = open_out stdout in
  let err = open_out stderr in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let started = now () in
  let pid = Unix.create_process argv.(0) argv stdin_r out err in
  List.iter Unix.close [ stdin_r; out; err ];
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()))
  in
  ignore (Unix.alarm timeout : int);
  let status, cpu_us, rss_kb =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.alarm 0 : int);
        Sys.set_signal Sys.sigalrm previous)
      (fun () -> reap pid)
  in
  let wall_s = now () -. started in
  {
    status;
    wall_s;
    cpu_s = float_of_int cpu_us *. 1e-6;
    peak_rss_mb = float_of_int rss_kb *. 1024. /. 1e6;
  }
