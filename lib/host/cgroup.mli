(** Per-guest memory control group: the four Linux-style LRU lists
    (anonymous/file x active/inactive), a resident-page count and an
    optional resident limit (the paper constrains guest memory with
    cgroups, Section 5).

    The lists are flat {!Mem.Flru} lists over a caller-supplied arena,
    and a "node" is just the arena node id (the frame number on the
    host side, the gpa on the guest side) — insertion, removal and
    promotion are allocation-free int-array link updates.

    Pages enter the inactive list of their type; a second reference
    promotes them to active during reclaim scans.  Reclaim pops from the
    inactive tails, file pages first when the host prefers named pages. *)

type list_id = Anon_active | Anon_inactive | File_active | File_inactive

type t

(** [create ~arena ~limit_frames] makes an empty cgroup whose lists
    draw nodes from [arena]; [limit_frames = None] means unlimited
    (global watermarks still apply). *)
val create : arena:Mem.Flru.arena -> limit_frames:int option -> t

val limit : t -> int option

(** [resident t] is the number of frames currently charged to the group. *)
val resident : t -> int

(** [insert t id node] charges a frame and places it at the MRU end of
    list [id].  The node must be detached. *)
val insert : t -> list_id -> int -> unit

(** [remove t node] detaches a charged frame (uncharging it).  The node
    must currently be in one of this group's lists. *)
val remove : t -> int -> unit

(** [move t id node] repositions a charged frame to the MRU end of [id]
    (e.g. inactive -> active promotion, or named -> anon retyping). *)
val move : t -> list_id -> int -> unit

(** [tail t id] is the LRU frame of list [id], if any. *)
val tail : t -> list_id -> int option

val length : t -> list_id -> int

(** [inactive_low t ~file] tests whether the inactive list of the given
    type is small relative to its active list, signalling that reclaim
    should deactivate some active pages (Linux's inactive_is_low). *)
val inactive_low : t -> file:bool -> bool
