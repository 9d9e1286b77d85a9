(** The pluggable durable-I/O layer (DESIGN.md §3.10).

    Every mutation the daemon makes to durable state — checkpoint
    snapshot logs, job manifests, the tenant-tally journal, sweeps of
    all of the above — and every byte it sends down a client socket
    goes through the [impl] record below.  The default implementation
    is the real syscalls (with real [fsync]s); the chaos engine installs
    {!Injector} instead, which counts the same calls as I/O boundaries
    and simulates a process death at a chosen one.

    Reads are deliberately {e not} part of the layer: a crash cannot
    corrupt state through a read, and keeping the surface small keeps
    the boundary enumeration meaningful.

    The implementation is consulted at call time through {!current},
    which {!with_impl} sets for the extent of one function call, so a
    recovery server created after that call returns runs on real
    syscalls even though the dead predecessor ran under the injector.
    The setting is process-global and not synchronised: the chaos
    harness drives everything single-threaded (the daemon under test
    uses [Queue.step], never a scheduler domain). *)

(** Simulated process death, raised by the chaos injector at the
    drilled boundary.  Never raised by the real implementation. *)
exception Crash

type impl = {
  write_file : string -> string -> unit;
      (** create/truncate [path] and write the whole payload *)
  append : string -> string -> unit;
      (** write the whole payload at the end of the existing file [path];
          durable once [fsync_file path] returns *)
  fsync_file : string -> unit;  (** flush file contents to disk *)
  rename : string -> string -> unit;
  fsync_dir : string -> unit;
      (** flush directory entries — what makes a rename durable *)
  remove : string -> unit;
  mkdir : string -> int -> unit;
  rmdir : string -> unit;
  send : Unix.file_descr -> string -> int -> int -> int;
      (** [send fd s off len]: one socket write attempt; may be short *)
}

(* ---- the real implementation ---- *)

let write_all_to path flags data =
  let fd = Unix.openfile path (Unix.O_WRONLY :: flags) 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length data in
      let rec go off =
        if off < n then
          match Unix.write_substring fd data off (n - off) with
          | written -> go (off + written)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      in
      go 0)

let real_write_file path data =
  write_all_to path [ Unix.O_CREAT; Unix.O_TRUNC ] data

(* No [O_CREAT]: an append creates no directory entry, so a missing
   file is an error rather than a new entry no fsync has covered. *)
let real_append path data = write_all_to path [ Unix.O_APPEND ] data

(* Some filesystems refuse fsync on directories (or on read-only fds);
   treat "the kernel cannot do it here" as a no-op rather than an
   error — the call is the durability contract we can keep. *)
let real_fsync path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let real : impl =
  {
    write_file = real_write_file;
    append = real_append;
    fsync_file = real_fsync;
    rename = Unix.rename;
    fsync_dir = real_fsync;
    remove = Unix.unlink;
    mkdir = Unix.mkdir;
    rmdir = Unix.rmdir;
    send = Unix.write_substring;
  }

let current : impl ref = ref real
let with_impl (i : impl) f =
  let prev = !current in
  current := i;
  Fun.protect ~finally:(fun () -> current := prev) f

(* ---- call-time dispatch ---- *)

let write_file path data = !current.write_file path data
let append path data = !current.append path data
let fsync_file path = !current.fsync_file path
let rename src dst = !current.rename src dst
let fsync_dir dir = !current.fsync_dir dir
let remove path = !current.remove path
let mkdir path perms = !current.mkdir path perms
let rmdir path = !current.rmdir path
let send fd s off len = !current.send fd s off len

(** Publish [data] at [path] atomically {e and} durably:

      write [path].tmp → fsync it → rename over [path] → fsync the
      parent directory.

    The first fsync orders the payload before the rename (no window
    where the rename survives a crash but the contents don't); the
    directory fsync makes the rename itself durable (without it a
    crash after [rename] returns can still roll the directory entry
    back to the old file — the exact bug the chaos engine surfaced in
    every tmp+rename path we had). *)
let save_atomic ~path data =
  let tmp = path ^ ".tmp" in
  write_file tmp data;
  fsync_file tmp;
  rename tmp path;
  fsync_dir (Filename.dirname path)
