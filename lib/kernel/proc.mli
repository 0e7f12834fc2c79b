(** Child-process primitives for the supervised worker pool: spawn a
    child with a pipe pair, signal it, and reap it without blocking. It
    deliberately stops below policy —
    heartbeats, retries and chaos live in [Mc.Supervise]; here is only the
    thin, total wrapper over [Unix] that the supervisor and its tests
    share.

    All functions are Unix-only (the repository does not target Windows)
    and safe to call from a process that has many children: waiting is
    per-pid and non-blocking by default, so one stalled child never hides
    another's exit. *)

type child

val pid : child -> int

val to_child : child -> Unix.file_descr
(** Write end wired to the child's stdin. *)

val from_child : child -> Unix.file_descr
(** Read end wired to the child's stdout. *)

type status =
  | Running
  | Exited of int  (** normal exit with this code *)
  | Signaled of int  (** killed by this signal *)

val pp_status : Format.formatter -> status -> unit

val spawn : prog:string -> args:string list -> child
(** Start [prog] with [args] (argv, including argv[0]), wiring a fresh
    pipe to its stdin and another from its stdout; stderr is inherited.
    Both parent-side descriptors have close-on-exec set, so a later
    sibling spawn cannot hold a dead worker's pipe open. *)

val fork : (in_channel -> out_channel -> unit) -> child
(** [fork f] forks; the child runs [f input output] over the pipe pair
    (input carries bytes from the parent, output back to it) and
    [Stdlib.exit]s with 0 when [f] returns, 125 when it raises. For tests
    that need a scriptable worker without an executable on disk. *)

val signal : child -> int -> unit
(** Send a signal, ignoring [ESRCH] (the child already exited — with
    non-blocking reaping that race is routine, not an error). *)

val poll : child -> status
(** Non-blocking: [Running] if the child has not exited yet, otherwise its
    exit status. Idempotent — the status is cached once reaped, so callers
    may poll freely without losing the exit code to a second [waitpid]. *)

val wait : child -> status
(** Block until the child exits (or return the cached status). *)

val kill_and_reap : child -> status
(** SIGKILL then blocking reap: the supervisor's last resort for a stalled
    worker. Also closes both pipe ends. *)

val close_pipes : child -> unit
(** Close both parent-side descriptors, ignoring [EBADF] on
    already-closed ones. Idempotent. *)
