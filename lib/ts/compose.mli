(** Parallel composition [M ∥ M'] (Definition 3): synchronous execution with
    synchronous communication.

    A joint transition [((s₁,s₁'), A'', B'', (s₂,s₂'))] exists iff
    [(s₁,A,B,s₂) ∈ T] and [(s₁',A',B',s₂') ∈ T'] with [A ∩ O' = B'] and
    [A' ∩ O = B]; then [A'' = A ∪ A'] and [B'' = B ∪ B'].  Only state pairs
    reachable from [Q × Q'] are kept, and labels are unioned.  The product
    retains provenance so runs of the composition can be projected back onto
    either operand (needed to turn a model-checking counterexample into a test
    of the legacy component, Section 4.2). *)

type product = private {
  auto : Automaton.t;
  left : Automaton.t;
  right : Automaton.t;
  pairs : (Automaton.state * Automaton.state) array;
      (** product state → (left state, right state) *)
}

val parallel : Automaton.t -> Automaton.t -> product
(** Raises [Invalid_argument] when the operands are not composable
    ([I ∩ I' ≠ ∅] or [O ∩ O' ≠ ∅]) or their proposition universes overlap. *)

val parallel_many : Automaton.t list -> Automaton.t
(** Left fold of {!parallel} over two or more automata, discarding
    provenance. *)

val project_left : product -> Run.t -> Run.t
(** Map a run of the product onto the left operand: states via provenance,
    interactions restricted to the left universes.  The result is a genuine
    run of the left operand (composition only combines real transitions). *)

val project_right : product -> Run.t -> Run.t

val left_state : product -> Automaton.state -> Automaton.state

val right_state : product -> Automaton.state -> Automaton.state

val find_pair : product -> Automaton.state * Automaton.state -> Automaton.state option
(** Product state for a (left, right) pair if that pair is reachable. *)

val stepper :
  Automaton.t ->
  Automaton.t ->
  Automaton.state * Automaton.state ->
  (Automaton.trans * Automaton.trans) list
(** The joint moves of the parallel composition from a state pair, without
    materializing the product — the compatible transition pairs per
    Definition 3.  [stepper left right] precomputes the signal cross-maps, so
    partial application amortizes the setup over a whole exploration. *)

val joint_iter :
  Automaton.t ->
  Automaton.t ->
  Automaton.state * Automaton.state ->
  (Automaton.trans -> Automaton.trans -> unit) ->
  int
(** Allocation-light variant of {!stepper}: applies the callback to every
    compatible transition pair (in {!stepper}'s enumeration order — left
    adjacency order outer, right adjacency order inner) and returns the
    number of joint moves.  Compatibility is decided by comparing
    shared-signal footprint keys memoized per interned interaction id;
    narrow right fan-outs are joined by direct scan, wide ones (chaos
    states) through per-state hash buckets cached across calls — so
    composition and on-the-fly exploration visit a state pair in O(moves)
    rather than O(|T_l| × |T_r|) where it matters.  Used by
    {!Mechaml_mc.Onthefly}. *)

(** Incremental product reconstruction across a sequence of right operands
    that differ only in a few states' adjacency rows — the synthesis loop's
    [context ∥ chaos(M_i)] sequence.  Each call re-runs the reachability BFS
    (numbering must stay byte-identical to {!parallel} and the reachable
    region can shrink as escapes to chaos disappear), but joint-move
    enumeration per visited pair — the dominant cost against a chaos closure
    — is served from a cache invalidated only for the caller's dirty right
    states.  The resulting product is structurally identical to
    [parallel left right]. *)
module Inc : sig
  type t
  (** Cache handle, tied to one left operand. *)

  type stats = {
    old_of : int array;
        (** per new-product state, the previous product's state with the same
            (left, right) pair, or [-1] if none — the correlation
            that lets {!Mechaml_mc.Sat} warm-start fixpoints *)
    dirty : int list;
        (** new-product states that are new or whose right projection was
            dirty this call: outside this set (and the states that reach it),
            the old product's subgraph is isomorphic *)
    reused : int;  (** visited pairs whose moves came from the cache *)
    total : int;  (** product states *)
  }

  val create : Automaton.t -> t
  (** [create left] — subsequent {!parallel} calls compose this operand. *)

  val parallel : t -> right:Automaton.t -> dirty:Automaton.state list -> product * stats
  (** Compose against the next right operand.  [dirty] lists the right
      states (of {e this} operand) whose adjacency rows differ from the
      previous call's operand — for chaos closures,
      {!Mechaml_core.Chaos.dirty_states}.  Correctness requires exactly the
      contract the chaos closure provides: every right state keeps its index
      across operands (new states only append), and a state not listed
      dirty has the same adjacency row (labels, destinations, order) as in
      the previous operand. *)

  val left_operand : t -> Automaton.t
end
