(** VSwapper feature configuration.

    The paper evaluates five configurations; the two booleans here select
    the VSwapper half (ballooning is a machine-level option).  The
    Preventer's tunables default to the paper's empirically chosen values
    (Section 4.2): a 1 ms emulation window and at most 32 concurrently
    emulated pages.

    VSwapper always advertises a 4 KiB logical sector size to guests so
    their disk requests arrive page-aligned, which the Mapper needs
    (paper Section 4.1 "Page Alignment" and the Windows discussion in
    5.4).  Guests that ignore it (misaligned Windows installs) fall back
    to the non-Mapper path request by request. *)

type t = {
  mapper : bool;  (** enable the Swap Mapper *)
  preventer : bool;  (** enable the False Reads Preventer *)
  preventer_window : Sim.Time.t;  (** max time a write buffer may live *)
  preventer_max_buffers : int;  (** cap on concurrently emulated pages *)
}

(** Plain uncooperative swapping: both components off. *)
val baseline : t

(** Mapper only ("mapper" configuration / "vswapper w/o preventer"). *)
val mapper_only : t

(** Full VSwapper: Mapper + Preventer. *)
val vswapper : t

val pp : Format.formatter -> t -> unit
