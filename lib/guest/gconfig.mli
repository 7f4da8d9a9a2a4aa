(** What callers vary about a guest: its size, its swap partition and
    its disk alignment.  The kernel tunables and the CPU cost model are
    constants of {!Guestos}, and the kernel and free-page watermarks
    are derived from [mem_pages] there.  {!Guestos.create} rejects a
    field outside its stated range with [Invalid_argument] naming it. *)

type t = {
  mem_pages : int;
      (** guest-physical memory the guest believes it has; [>= 1] *)
  swap_blocks : int;  (** size of the guest swap partition, blocks; [>= 1] *)
  misaligned_io_percent : int;
      (** percentage of guest disk requests that are not 4 KiB aligned
          (0 for Linux with 4K sectors; Windows without a reformatted
          disk issues sporadic 512-byte accesses, paper Section 5.4);
          in [0, 100] *)
}

(** [default ~mem_mb] sizes a guest with [mem_mb] MiB of believed memory
    and a 1 GiB swap partition. *)
val default : mem_mb:int -> t
