(** The disk's write buffer: the set of dirty sector runs awaiting
    destage.

    Runs are kept sorted, disjoint and non-adjacent in two parallel
    [int array]s (starts and exclusive ends), so every question the
    disk asks is a binary search: which runs a new write touches, which
    run could cover a read, which run lies nearest the destage head.
    The buffered-sector total is maintained incrementally.  Adding a
    write that merges into one run or lands past the last run moves no
    array elements. *)

type t

(** [create ()] is an empty buffer. *)
val create : unit -> t

(** [add t ~sector ~nsectors] buffers [\[sector, sector + nsectors)]
    ([nsectors >= 1]), merging it with every run it overlaps or
    touches end to end. *)
val add : t -> sector:int -> nsectors:int -> unit

(** [covers t ~sector ~nsectors] holds when [\[sector, sector +
    nsectors)] lies wholly inside one buffered run. *)
val covers : t -> sector:int -> nsectors:int -> bool

(** [pop_nearest t ~head ~max] takes up to [max] sectors from the run
    nearest [head] and returns them as [Some (start, len)], or [None]
    when the buffer is empty — a one-step elevator with bounded chunks.
    A run's distance is 0 when [head] lies in it (ends included), else
    the gap from [head] to its nearer end; of two equidistant runs the
    lower one wins.  When [head] sits strictly inside the chosen run
    the chunk starts at [head], continuing the current sweep instead of
    seeking back to the run start; the sectors behind [head] stay
    buffered for a later pass. *)
val pop_nearest : t -> head:int -> max:int -> (int * int) option

(** [count t] is the number of buffered runs. *)
val count : t -> int

(** [sectors t] is the number of buffered sectors. *)
val sectors : t -> int
