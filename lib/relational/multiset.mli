(** Fact multisets.

    Message buffers of transducer networks are multisets (Section 4.1.3):
    the same message can be in flight several times simultaneously. *)

type t

val empty : t
val is_empty : t -> bool

val size : t -> int
(** Total number of copies. *)

val support : t -> Fact.Set.t
(** The multiset "collapsed to a set" (the paper's [M]). *)

val count : Fact.t -> t -> int
val mem : Fact.t -> t -> bool
val add : ?copies:int -> Fact.t -> t -> t
val of_list : Fact.t list -> t
val of_instance : Instance.t -> t

val union : t -> t -> t
(** Multiset union: multiplicities add. *)

val diff : t -> t -> t
(** Multiset difference: multiplicities subtract, truncated at zero. *)

val remove_one : ?copies:int -> Fact.t -> t -> t
(** Removes [copies] copies (default 1), or every copy when there are no
    more than that; identity if absent.
    @raise Invalid_argument on negative [copies]. *)

val sub : t -> t -> bool
(** Submultiset test. *)

val fold : (Fact.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Fact.t list
(** Each fact repeated by its multiplicity. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
