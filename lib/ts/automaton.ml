module Bitset = Mechaml_util.Bitset

type state = int

type trans = { input : Bitset.t; output : Bitset.t; dst : state }

(* Interaction interning: every distinct (A, B) transition label gets a small
   dense id.  When |I| + |O| fits a single word the key is the packed bit
   pattern (no allocation on lookup); otherwise fall back to structural
   hashing of the pair. *)
type inter_tbl =
  | Packed of { shift : int; tbl : (int, int) Hashtbl.t }
  | Pairs of (int * int, int) Hashtbl.t

(* The per-state sorted view of the transition relation: segments stably
   sorted by interaction id, so equal-labelled transitions keep their
   adjacency-list order and [successors] can binary-search a label. *)
type sorted = {
  f_input : Bitset.t array;
  f_output : Bitset.t array;
  f_dst : int array;
  f_inter : int array;
}

type csr = {
  row : int array;            (* n+1 offsets into the flat arrays *)
  adj_inter : int array;      (* interaction id per transition, adjacency order *)
  inter_tbl : inter_tbl;
  inter_io : (Bitset.t * Bitset.t) array; (* id -> (input, output) *)
  sorted_cell : sorted option Atomic.t;
}

(* Both halves of the index are derived on first access — many automata are
   intermediate construction results (flattening, projection, products) that
   are only ever walked through their adjacency lists and never looked up by
   name.  Constructors that must report duplicate state names ([of_packed]
   without [assume_unique_names]) still build the name table eagerly, and
   [Builder.build] donates its intern table instead of rebuilding one.  The
   cells are atomic once-cells rather than [Lazy.t] because automata are
   shared across campaign worker domains: a racing force builds the same
   pure content twice and compare-and-set picks one winner, where a
   concurrent [Lazy.force] would raise.  The sorted view inside the CSR is a
   third such cell, derived from [row], [adj_inter] and the automaton's
   [trans]: the product join reads only the first two, so a patched closure
   never materializes it.  Cells hold data only, never closures — the memo
   cache marshals automata. *)
type index = {
  name_cell : (string, int) Hashtbl.t option Atomic.t; (* state name -> first index *)
  csr_cell : csr option Atomic.t;
}

type t = {
  name : string;
  inputs : Universe.t;
  outputs : Universe.t;
  props : Universe.t;
  state_names : string array;
  labels : Bitset.t array;
  trans : trans list array;
  initial : state list;
  index : index;
}

let inter_find it a b =
  match it with
  | Packed { shift; tbl } ->
    Hashtbl.find_opt tbl ((Bitset.to_int a lsl shift) lor Bitset.to_int b)
  | Pairs tbl -> Hashtbl.find_opt tbl (Bitset.to_int a, Bitset.to_int b)

let inter_add it a b id =
  match it with
  | Packed { shift; tbl } ->
    Hashtbl.add tbl ((Bitset.to_int a lsl shift) lor Bitset.to_int b) id
  | Pairs tbl -> Hashtbl.add tbl (Bitset.to_int a, Bitset.to_int b) id

let build_name_tbl ~dup_ok ~name state_names =
  let name_tbl = Hashtbl.create (2 * Array.length state_names + 1) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem name_tbl s then begin
        if not dup_ok then
          invalid_arg
            (Printf.sprintf "Automaton.of_packed: duplicate state name %S in %s" s name)
      end
      else Hashtbl.add name_tbl s i)
    state_names;
  name_tbl

(* Label interning against an existing table ([io] holds ids
   [0, Array.length io)).  A table that is not [owned] belongs to another
   automaton and is copied only when the first unseen label appears, so a
   patch that introduces no new interaction shares its parent's table. *)
let interner ~tbl ~io ~owned =
  let tbl = ref tbl and owned = ref owned and rev_io = ref [] and n = ref (Array.length io) in
  let intern a b =
    match inter_find !tbl a b with
    | Some id -> id
    | None ->
      if not !owned then begin
        (tbl :=
           match !tbl with
           | Packed { shift; tbl } -> Packed { shift; tbl = Hashtbl.copy tbl }
           | Pairs tbl -> Pairs (Hashtbl.copy tbl));
        owned := true
      end;
      let id = !n in
      incr n;
      inter_add !tbl a b id;
      rev_io := (a, b) :: !rev_io;
      id
  in
  let finish () =
    (!tbl, if !rev_io = [] then io else Array.append io (Array.of_list (List.rev !rev_io)))
  in
  (intern, finish)

let intern_row intern adj_inter lo ts =
  List.iteri (fun k t -> adj_inter.(lo + k) <- intern t.input t.output) ts

let build_csr ~in_width ~out_width ~n ~trans =
  let row = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    row.(s + 1) <- row.(s) + List.length trans.(s)
  done;
  let tbl =
    if in_width + out_width <= Bitset.max_width then
      Packed { shift = out_width; tbl = Hashtbl.create 16 }
    else Pairs (Hashtbl.create 16)
  in
  let intern, finish = interner ~tbl ~io:[||] ~owned:true in
  let adj_inter = Array.make row.(n) 0 in
  for s = 0 to n - 1 do
    intern_row intern adj_inter row.(s) trans.(s)
  done;
  let inter_tbl, inter_io = finish () in
  { row; adj_inter; inter_tbl; inter_io; sorted_cell = Atomic.make None }

(* Splice a new CSR out of an old one whose state [s] keeps its index and
   its adjacency list unless [dirty.(s)]: clean segments of [adj_inter] are
   blitted, only dirty segments intern their transitions.  Ids of surviving
   interactions are preserved and new ones append at the end, so ids may
   differ from what a fresh [build_csr] would assign; that is unobservable,
   since every consumer either walks the adjacency lists ([adj_inter] keeps
   list order) or treats the sorted view as a set. *)
let patch_csr ~old_csr ~n ~trans ~dirty =
  let old_row = old_csr.row in
  let row = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    let len = if dirty.(s) then List.length trans.(s) else old_row.(s + 1) - old_row.(s) in
    row.(s + 1) <- row.(s) + len
  done;
  let intern, finish =
    interner ~tbl:old_csr.inter_tbl ~io:old_csr.inter_io ~owned:false
  in
  let adj_inter = Array.make row.(n) 0 in
  for s = 0 to n - 1 do
    if dirty.(s) then intern_row intern adj_inter row.(s) trans.(s)
    else
      Array.blit old_csr.adj_inter old_row.(s) adj_inter row.(s) (row.(s + 1) - row.(s))
  done;
  let inter_tbl, inter_io = finish () in
  { row; adj_inter; inter_tbl; inter_io; sorted_cell = Atomic.make None }

(* The sorted view: each segment stably sorted by interaction id, so
   transitions sharing a label keep their list order and [successors] still
   enumerates destinations in declaration order.  Segments whose ids already
   come out non-decreasing (the common case: builders and products emit few,
   distinct labels per state) need no permutation, and when all of them do,
   [adj_inter] itself serves as [f_inter]. *)
let derive_sorted ~row ~adj_inter ~trans =
  let n = Array.length row - 1 in
  let total = row.(n) in
  let f_input = Array.make total Bitset.empty in
  let f_output = Array.make total Bitset.empty in
  let f_dst = Array.make total 0 in
  let f_inter = ref adj_inter in
  for s = 0 to n - 1 do
    let lo = row.(s) and hi = row.(s + 1) in
    let in_order = ref true in
    for k = lo + 1 to hi - 1 do
      if adj_inter.(k - 1) > adj_inter.(k) then in_order := false
    done;
    if !in_order then
      List.iteri
        (fun k t ->
          f_input.(lo + k) <- t.input;
          f_output.(lo + k) <- t.output;
          f_dst.(lo + k) <- t.dst)
        trans.(s)
    else begin
      if !f_inter == adj_inter then f_inter := Array.copy adj_inter;
      let ts = Array.of_list trans.(s) in
      let perm = Array.init (hi - lo) Fun.id in
      Array.stable_sort (fun i j -> compare adj_inter.(lo + i) adj_inter.(lo + j)) perm;
      Array.iteri
        (fun k i ->
          let t = ts.(i) in
          f_input.(lo + k) <- t.input;
          f_output.(lo + k) <- t.output;
          f_dst.(lo + k) <- t.dst;
          !f_inter.(lo + k) <- adj_inter.(lo + i))
        perm
    end
  done;
  { f_input; f_output; f_dst; f_inter = !f_inter }

let make_with_tbl ~name_tbl ~name ~inputs ~outputs ~props ~state_names ~labels ~trans ~initial =
  let index = { name_cell = Atomic.make name_tbl; csr_cell = Atomic.make None } in
  { name; inputs; outputs; props; state_names; labels; trans; initial; index }

let make ~dup_ok ~name ~inputs ~outputs ~props ~state_names ~labels ~trans ~initial =
  (* With [dup_ok] nothing can fail, so the table is derived on demand;
     otherwise build it now to surface duplicates at construction time. *)
  let name_tbl =
    if dup_ok then None else Some (build_name_tbl ~dup_ok ~name state_names)
  in
  make_with_tbl ~name_tbl ~name ~inputs ~outputs ~props ~state_names ~labels ~trans ~initial

let num_states m = Array.length m.state_names

(* Force an atomic once-cell: a racing [build] is wasted work, never a
   second value.  [build] takes the automaton rather than closing over it,
   so the already-forced path allocates nothing. *)
let force_once cell build m =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    ignore (Atomic.compare_and_set cell None (Some (build m)));
    Option.get (Atomic.get cell)

let name_tbl m =
  force_once m.index.name_cell
    (fun m -> build_name_tbl ~dup_ok:true ~name:m.name m.state_names)
    m

let csr m =
  force_once m.index.csr_cell
    (fun m ->
      build_csr ~in_width:(Universe.size m.inputs) ~out_width:(Universe.size m.outputs)
        ~n:(num_states m) ~trans:m.trans)
    m

let sorted m =
  let c = csr m in
  force_once c.sorted_cell
    (fun m ->
      let c = csr m in
      derive_sorted ~row:c.row ~adj_inter:c.adj_inter ~trans:m.trans)
    m

let num_transitions m = (csr m).row.(num_states m)

let state_name m s =
  if s < 0 || s >= num_states m then
    invalid_arg (Printf.sprintf "Automaton.state_name: state %d out of range" s);
  m.state_names.(s)

let state_index_opt m name = Hashtbl.find_opt (name_tbl m) name

let state_index m name =
  match state_index_opt m name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Automaton.state_index: unknown state %S in %s" name m.name)

let transitions_from m s = m.trans.(s)

let label m s = m.labels.(s)

let has_prop m s p =
  match Universe.index_opt m.props p with
  | Some i -> Bitset.mem i m.labels.(s)
  | None -> false

let is_blocking m s = m.trans.(s) = []

let interaction_id m a b = inter_find (csr m).inter_tbl a b

let num_interactions m = Array.length (csr m).inter_io

let interaction_io m id = (csr m).inter_io.(id)

(* Lowest k in [lo, hi) with f_inter.(k) >= id. *)
let lower_bound f_inter lo hi id =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if f_inter.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

let accepts m s a b =
  match interaction_id m a b with
  | None -> false
  | Some id ->
    let row = (csr m).row and f_inter = (sorted m).f_inter in
    let k = lower_bound f_inter row.(s) row.(s + 1) id in
    k < row.(s + 1) && f_inter.(k) = id

let successors m s a b =
  match interaction_id m a b with
  | None -> []
  | Some id ->
    let row = (csr m).row and v = sorted m in
    let hi = row.(s + 1) in
    let k = lower_bound v.f_inter row.(s) hi id in
    let rec collect k = if k < hi && v.f_inter.(k) = id then v.f_dst.(k) :: collect (k + 1) else [] in
    collect k

let deterministic m =
  let row = (csr m).row and f_inter = (sorted m).f_inter in
  let ok = ref true in
  for s = 0 to num_states m - 1 do
    for k = row.(s) to row.(s + 1) - 2 do
      if f_inter.(k) = f_inter.(k + 1) then ok := false
    done
  done;
  !ok

let input_deterministic m =
  let ok = ref true in
  Array.iter
    (fun ts ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun t ->
          let key = Bitset.to_int t.input in
          if Hashtbl.mem seen key then ok := false else Hashtbl.add seen key ())
        ts)
    m.trans;
  !ok

let composable a b = Universe.disjoint a.inputs b.inputs && Universe.disjoint a.outputs b.outputs

let orthogonal a b =
  composable a b && Universe.disjoint a.inputs b.outputs && Universe.disjoint a.outputs b.inputs

let rename m name = { m with name }

let relabel m ~props f =
  { m with props; labels = Array.init (num_states m) f }

let dedup_trans ts =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      let key = (Bitset.to_int t.input, Bitset.to_int t.output, t.dst) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ts

let restrict m ~inputs ~outputs ~props =
  let project_trans t =
    {
      input = Universe.restrict m.inputs ~to_:inputs t.input;
      output = Universe.restrict m.outputs ~to_:outputs t.output;
      dst = t.dst;
    }
  in
  make ~dup_ok:true ~name:m.name ~inputs ~outputs ~props ~state_names:m.state_names
    ~labels:(Array.map (fun l -> Universe.restrict m.props ~to_:props l) m.labels)
    ~trans:(Array.map (fun ts -> dedup_trans (List.map project_trans ts)) m.trans)
    ~initial:m.initial

let map_states m ~f =
  let state_names = Array.init (num_states m) f in
  (* transitions are untouched: the CSR carries over and the name lookup
     table is rederived on demand from the new names *)
  { m with state_names; index = { name_cell = Atomic.make None; csr_cell = m.index.csr_cell } }

let map_signals m ~inputs ~outputs =
  {
    m with
    inputs = Universe.of_list (List.map inputs (Universe.to_list m.inputs));
    outputs = Universe.of_list (List.map outputs (Universe.to_list m.outputs));
  }

let of_packed ?(assume_unique_names = false) ~name ~inputs ~outputs ~props ~state_names ~labels
    ~trans ~initial () =
  let n = Array.length state_names in
  if Array.length labels <> n || Array.length trans <> n then
    invalid_arg (Printf.sprintf "Automaton.of_packed: array lengths disagree in %s" name);
  if initial = [] then
    invalid_arg (Printf.sprintf "Automaton.of_packed: %s has no initial state" name);
  List.iter
    (fun q ->
      if q < 0 || q >= n then
        invalid_arg (Printf.sprintf "Automaton.of_packed: initial state %d out of range in %s" q name))
    initial;
  Array.iter
    (List.iter (fun t ->
         if t.dst < 0 || t.dst >= n then
           invalid_arg
             (Printf.sprintf "Automaton.of_packed: destination %d out of range in %s" t.dst name)))
    trans;
  make ~dup_ok:assume_unique_names ~name ~inputs ~outputs ~props ~state_names ~labels ~trans
    ~initial

let patch ~old ~name ~props ~state_names ~labels ~trans ~initial ~dirty () =
  let n = Array.length state_names in
  if Array.length labels <> n || Array.length trans <> n || Array.length dirty <> n then
    invalid_arg (Printf.sprintf "Automaton.patch: array lengths disagree in %s" name);
  if initial = [] then invalid_arg (Printf.sprintf "Automaton.patch: %s has no initial state" name);
  List.iter
    (fun q ->
      if q < 0 || q >= n then
        invalid_arg (Printf.sprintf "Automaton.patch: initial state %d out of range in %s" q name))
    initial;
  let old_n = num_states old in
  if n < old_n then invalid_arg (Printf.sprintf "Automaton.patch: %s drops states" name);
  (* only dirty rows carry unvalidated destinations; clean rows were checked
     when [old] was built and keep their indices *)
  Array.iteri
    (fun s ts ->
      if dirty.(s) then
        List.iter
          (fun t ->
            if t.dst < 0 || t.dst >= n then
              invalid_arg
                (Printf.sprintf "Automaton.patch: destination %d out of range in %s" t.dst name))
          ts
      else if s >= old_n then
        invalid_arg (Printf.sprintf "Automaton.patch: clean state %d is new in %s" s name))
    trans;
  let c = patch_csr ~old_csr:(csr old) ~n ~trans ~dirty in
  let index = { name_cell = Atomic.make None; csr_cell = Atomic.make (Some c) } in
  { name; inputs = old.inputs; outputs = old.outputs; props; state_names; labels; trans; initial; index }

module Csr = struct
  let row m = (csr m).row

  let input m = (sorted m).f_input

  let output m = (sorted m).f_output

  let dst m = (sorted m).f_dst

  let inter m = (sorted m).f_inter

  let adj_inter m = (csr m).adj_inter
end

module Builder = struct
  (* the enclosing automaton type is referenced via the result of [build] *)

  type b = {
    b_name : string;
    b_inputs : Universe.t;
    b_outputs : Universe.t;
    mutable b_props : string list; (* reverse order of first mention *)
    names : (string, int) Hashtbl.t;
    mutable rev_states : string list;
    mutable n : int;
    state_props : (int, string list ref) Hashtbl.t;
    mutable rev_trans : (int * string list * string list * int) list;
    mutable initial : string list;
    declared_props : string list;
  }

  type t = b

  let create ~name ~inputs ~outputs ?(props = []) () =
    {
      b_name = name;
      b_inputs = Universe.of_list inputs;
      b_outputs = Universe.of_list outputs;
      b_props = List.rev props;
      names = Hashtbl.create 16;
      rev_states = [];
      n = 0;
      state_props = Hashtbl.create 16;
      rev_trans = [];
      initial = [];
      declared_props = props;
    }

  let intern_state b name =
    match Hashtbl.find_opt b.names name with
    | Some i -> i
    | None ->
      let i = b.n in
      Hashtbl.add b.names name i;
      b.rev_states <- name :: b.rev_states;
      b.n <- b.n + 1;
      Hashtbl.add b.state_props i (ref []);
      i

  let note_prop b p = if not (List.mem p b.b_props) then b.b_props <- p :: b.b_props

  let add_state b ?(props = []) name =
    let i = intern_state b name in
    let cell = Hashtbl.find b.state_props i in
    List.iter
      (fun p ->
        note_prop b p;
        if not (List.mem p !cell) then cell := p :: !cell)
      props;
    i

  let add_trans b ~src ?(inputs = []) ?(outputs = []) ~dst () =
    let s = intern_state b src in
    let d = intern_state b dst in
    (* Validate signal names eagerly so mistakes surface at model-building
       time rather than during composition. *)
    List.iter (fun i -> ignore (Universe.index b.b_inputs i)) inputs;
    List.iter (fun o -> ignore (Universe.index b.b_outputs o)) outputs;
    b.rev_trans <- (s, inputs, outputs, d) :: b.rev_trans

  let set_initial b names = b.initial <- names

  let build b =
    if b.initial = [] then
      invalid_arg (Printf.sprintf "Automaton.Builder.build: %s has no initial state" b.b_name);
    let props = Universe.of_list (List.rev b.b_props) in
    let state_names = Array.of_list (List.rev b.rev_states) in
    let labels =
      Array.init b.n (fun i ->
          Universe.set_of_names props !(Hashtbl.find b.state_props i))
    in
    let trans = Array.make (max b.n 1) [] in
    List.iter
      (fun (s, inputs, outputs, d) ->
        let t =
          {
            input = Universe.set_of_names b.b_inputs inputs;
            output = Universe.set_of_names b.b_outputs outputs;
            dst = d;
          }
        in
        trans.(s) <- t :: trans.(s))
      b.rev_trans;
    let initial =
      List.map
        (fun n ->
          match Hashtbl.find_opt b.names n with
          | Some i -> i
          | None -> invalid_arg (Printf.sprintf "Builder.build: unknown initial state %S" n))
        b.initial
    in
    (* [b.names] maps exactly the interned state names to their indices, so a
       copy (no rehashing) doubles as the automaton's lookup table —
       uniqueness is guaranteed by interning, no validation needed.  Copied
       because the builder stays usable after [build]. *)
    make_with_tbl ~name_tbl:(Some (Hashtbl.copy b.names)) ~name:b.b_name ~inputs:b.b_inputs
      ~outputs:b.b_outputs ~props ~state_names ~labels
      ~trans:(if b.n = 0 then [||] else trans)
      ~initial
end

let pp_io m ppf (a, b) =
  Format.fprintf ppf "%a/%a" (Universe.pp_set m.inputs) a (Universe.pp_set m.outputs) b

let pp ppf m =
  Format.fprintf ppf "@[<v>automaton %s@," m.name;
  Format.fprintf ppf "  inputs:  %s@," (String.concat ", " (Universe.to_list m.inputs));
  Format.fprintf ppf "  outputs: %s@," (String.concat ", " (Universe.to_list m.outputs));
  Format.fprintf ppf "  initial: %s@,"
    (String.concat ", " (List.map (fun s -> m.state_names.(s)) m.initial));
  Array.iteri
    (fun s ts ->
      let lbl = Universe.names_of_set m.props m.labels.(s) in
      Format.fprintf ppf "  state %s%s@," m.state_names.(s)
        (if lbl = [] then "" else " [" ^ String.concat ", " lbl ^ "]");
      List.iter
        (fun t ->
          Format.fprintf ppf "    %a -> %s@," (pp_io m) (t.input, t.output)
            m.state_names.(t.dst))
        ts)
    m.trans;
  Format.fprintf ppf "@]"
