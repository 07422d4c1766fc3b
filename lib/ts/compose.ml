module Bitset = Mechaml_util.Bitset
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_product_states =
  Metrics.histogram "ts_product_states"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e6 13)
    ~help:"Reachable states per parallel product construction."

let m_product_transitions =
  Metrics.histogram "ts_product_transitions"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e7 15)
    ~help:"Transitions per parallel product construction."

type product = {
  auto : Automaton.t;
  left : Automaton.t;
  right : Automaton.t;
  pairs : (Automaton.state * Automaton.state) array;
}

(* Communication constraint of Definition 3, evaluated on the shared signals:
   what one side consumes from the other must be exactly what the other
   produces on the connected signals.  For closed compositions (every output
   of one operand is an input of the other, as in context ∥ closure) this is
   literally the paper's (A ∩ O') = B' and (A' ∩ O) = B; for open
   compositions it lets unconnected signals pass through to the
   environment. *)

let cross_map from_u to_u =
  Array.init (Universe.size from_u) (fun i ->
      match Universe.index_opt to_u (Universe.name from_u i) with
      | Some j -> j
      | None -> -1)

let mask_of cross =
  Array.to_list cross
  |> List.mapi (fun i j -> (i, j))
  |> List.filter_map (fun (i, j) -> if j >= 0 then Some i else None)
  |> Bitset.of_list

let translate cross s = Bitset.fold (fun i acc -> Bitset.add cross.(i) acc) s Bitset.empty


(* Hash join over the communication constraint.  Every transition projects
   onto its shared-signal footprint — the pair of constraint sides, both
   expressed in a common index space: [A ∩ O'] translated to right-output
   indices paired with [B ∩ I'] in left-output indices on the left, and
   symmetrically [B' ∩ I] / [A' ∩ O] on the right.  Two transitions are
   compatible iff their footprints coincide, so bucketing one operand's
   transitions by footprint finds all partners by lookup instead of the
   former O(|T_l| × |T_r|) nested scan per state pair.  Narrow right-hand
   fan-outs skip the bucket table entirely — a linear scan over a cached
   key array beats hashing when there are only a handful of candidates,
   which is the common case outside chaos closures.  Both paths preserve
   adjacency-list order, so joint moves are enumerated exactly as the
   nested scan did.  Per-state caches amortize key computation across a
   whole product construction / on-the-fly exploration. *)
let small_fanout = 8
let make_join (left : Automaton.t) (right : Automaton.t) =
  if not (Automaton.composable left right) then
    invalid_arg
      (Printf.sprintf "Compose.joint_iter: %s and %s are not composable" left.Automaton.name
         right.Automaton.name);
  let li_ro = cross_map left.inputs right.outputs in
  let lo_ri = cross_map left.outputs right.inputs in
  let ri_lo = cross_map right.inputs left.outputs in
  let ro_li = cross_map right.outputs left.inputs in
  let mask_li = mask_of li_ro
  and mask_lo = mask_of lo_ri
  and mask_ri = mask_of ri_lo
  and mask_ro = mask_of ro_li in
  let lo_w = Universe.size left.Automaton.outputs in
  let ro_w = Universe.size right.Automaton.outputs in
  if lo_w + ro_w <= Bitset.max_width then begin
    (* Footprint packs into one word: allocation-free int keys.  Keys depend
       only on the transition label, so they are memoized per interned
       interaction id — packed keys are non-negative, leaving -1 free as the
       not-yet-computed sentinel.  Transitions then resolve their key with
       one array read via the adjacency-order id table. *)
    let lkbi = Array.make (max (Automaton.num_interactions left) 1) (-1) in
    let rkbi = Array.make (max (Automaton.num_interactions right) 1) (-1) in
    let lkey_id iid =
      let k = Array.unsafe_get lkbi iid in
      if k >= 0 then k
      else begin
        let a, b = Automaton.interaction_io left iid in
        let k =
          (Bitset.to_int (translate li_ro (Bitset.inter a mask_li)) lsl lo_w)
          lor Bitset.to_int (Bitset.inter b mask_lo)
        in
        lkbi.(iid) <- k;
        k
      end
    in
    let rkey_id iid =
      let k = Array.unsafe_get rkbi iid in
      if k >= 0 then k
      else begin
        let a, b = Automaton.interaction_io right iid in
        let k =
          (Bitset.to_int (Bitset.inter b mask_ro) lsl lo_w)
          lor Bitset.to_int (translate ri_lo (Bitset.inter a mask_ri))
        in
        rkbi.(iid) <- k;
        k
      end
    in
    let row_l = Automaton.Csr.row left and ai_l = Automaton.Csr.adj_inter left in
    let row_r = Automaton.Csr.row right and ai_r = Automaton.Csr.adj_inter right in
    let rcache : (int, Automaton.trans list) Hashtbl.t option array =
      Array.make (Automaton.num_states right) None
    in
    let buckets s' =
      match rcache.(s') with
      | Some h -> h
      | None ->
        let h = Hashtbl.create (2 * (row_r.(s' + 1) - row_r.(s'))) in
        let j = ref row_r.(s') in
        List.iter
          (fun t' ->
            let k = rkey_id (Array.unsafe_get ai_r !j) in
            incr j;
            Hashtbl.replace h k
              (t' :: Option.value (Hashtbl.find_opt h k) ~default:[]))
          (Automaton.transitions_from right s');
        Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) h;
        rcache.(s') <- Some h;
        h
    in
    fun (s, s') f ->
      let count = ref 0 in
      let rn = row_r.(s' + 1) - row_r.(s') in
      if rn <= small_fanout then begin
        (* narrow fan-out: nested scan over adjacency lists, memoized keys *)
        let i = ref row_l.(s) in
        List.iter
          (fun t ->
            let k = lkey_id (Array.unsafe_get ai_l !i) in
            incr i;
            let j = ref row_r.(s') in
            List.iter
              (fun t' ->
                (if rkey_id (Array.unsafe_get ai_r !j) = k then begin
                   incr count;
                   f t t'
                 end);
                incr j)
              (Automaton.transitions_from right s'))
          (Automaton.transitions_from left s)
      end
      else begin
        let h = buckets s' in
        let i = ref row_l.(s) in
        List.iter
          (fun t ->
            let k = lkey_id (Array.unsafe_get ai_l !i) in
            incr i;
            match Hashtbl.find_opt h k with
            | None -> ()
            | Some ts' ->
              List.iter
                (fun t' ->
                  incr count;
                  f t t')
                ts')
          (Automaton.transitions_from left s)
      end;
      !count
  end
  else begin
    (* > 62 connected output signals: fall back to the direct scan *)
    let compatible (t : Automaton.trans) (t' : Automaton.trans) =
      Bitset.equal
        (translate li_ro (Bitset.inter t.input mask_li))
        (Bitset.inter t'.output mask_ro)
      && Bitset.equal
           (translate ri_lo (Bitset.inter t'.input mask_ri))
           (Bitset.inter t.output mask_lo)
    in
    fun (s, s') f ->
      let count = ref 0 in
      List.iter
        (fun t ->
          List.iter
            (fun t' ->
              if compatible t t' then begin
                incr count;
                f t t'
              end)
            (Automaton.transitions_from right s'))
        (Automaton.transitions_from left s);
      !count
  end

let joint_iter = make_join

(* BFS core of the product construction, parameterized over the joint-move
   enumerator so the incremental path below can substitute cached successor
   lists for live hash joins: [moves s s' emit] must call
   [emit input output l_dst r_dst] once per joint move of the pair, with the
   already-combined interaction label, in {!make_join}'s enumeration order.
   Everything observable about the product (state numbering, names, labels,
   adjacency order) is fixed by the emitted moves, which is what lets the
   incremental layer guarantee byte-identical products. *)
let bfs_product ~moves (left : Automaton.t) (right : Automaton.t) =
  if not (Automaton.composable left right) then
    invalid_arg
      (Printf.sprintf "Compose.parallel: %s and %s are not composable" left.Automaton.name
         right.Automaton.name);
  if not (Universe.disjoint left.Automaton.props right.Automaton.props) then
    invalid_arg "Compose.parallel: proposition universes overlap";
  let inputs = Universe.union left.inputs right.inputs in
  let outputs = Universe.union left.outputs right.outputs in
  let props = Universe.union left.props right.props in
  let lp_size = Universe.size left.props in
  (* Pairs pack into one int key (products beyond 2^62 states are unbuildable
     anyway), so interning never allocates a tuple; per-state data lives in
     growable arrays rather than reversed lists, and because ids are handed
     out in discovery order a cursor over those arrays doubles as the BFS
     queue. *)
  let nr = Automaton.num_states right in
  let table : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let cap = ref 16 in
  let names = ref (Array.make !cap "") in
  let labs = ref (Array.make !cap Bitset.empty) in
  let pl = ref (Array.make !cap 0) in
  let pr = ref (Array.make !cap 0) in
  let outs = ref (Array.make !cap []) in
  let n = ref 0 in
  let grow () =
    let c = 2 * !cap in
    let g a z =
      let b = Array.make c z in
      Array.blit !a 0 b 0 !n;
      a := b
    in
    g names "";
    g labs Bitset.empty;
    g pl 0;
    g pr 0;
    g outs [];
    cap := c
  in
  let intern s s' =
    let key = (s * nr) + s' in
    match Hashtbl.find_opt table key with
    | Some id -> id
    | None ->
      let id = !n in
      if id = !cap then grow ();
      Hashtbl.add table key id;
      !names.(id) <- Automaton.state_name left s ^ "," ^ Automaton.state_name right s';
      !labs.(id) <-
        Bitset.union (Automaton.label left s) (Bitset.shift lp_size (Automaton.label right s'));
      !pl.(id) <- s;
      !pr.(id) <- s';
      n := id + 1;
      id
  in
  let initial =
    List.concat_map (fun q -> List.map (fun q' -> intern q q') right.initial) left.initial
  in
  let cursor = ref 0 in
  while !cursor < !n do
    let id = !cursor in
    incr cursor;
    let s = !pl.(id) and s' = !pr.(id) in
    let acc = ref [] in
    moves s s' (fun input output l_dst r_dst ->
        let dst = intern l_dst r_dst in
        acc := { Automaton.input; output; dst } :: !acc);
    !outs.(id) <- List.rev !acc
  done;
  let count = !n in
  let state_names = Array.sub !names 0 count in
  let labels = Array.sub !labs 0 count in
  let pairs = Array.init count (fun i -> (!pl.(i), !pr.(i))) in
  let trans = Array.sub !outs 0 count in
  let auto : Automaton.t =
    (* Product names split unambiguously at the first ',' when no left
       operand name contains one, so uniqueness of the (s, s') pairs carries
       over to the concatenated names and [of_packed] can skip its duplicate
       check (and eager name-table build) entirely.  Otherwise let it
       validate — a collision falls through to the Builder merge below. *)
    let assume_unique_names =
      not (Array.exists (fun nm -> String.contains nm ',') left.Automaton.state_names)
    in
    match
      Automaton.of_packed ~assume_unique_names
        ~name:(left.Automaton.name ^ "||" ^ right.Automaton.name)
        ~inputs ~outputs ~props ~state_names ~labels ~trans ~initial ()
    with
    | auto -> auto
    | exception Invalid_argument _ -> begin
      (* Distinct pairs can concatenate to the same name (only when operand
         names themselves contain ','); the Builder interns by name and
         merges such states, which is what this constructor always did —
         keep that behaviour on the slow path. *)
      let builder =
        Automaton.Builder.create
          ~name:(left.Automaton.name ^ "||" ^ right.Automaton.name)
          ~inputs:(Universe.to_list inputs) ~outputs:(Universe.to_list outputs)
          ~props:(Universe.to_list props) ()
      in
      Array.iteri
        (fun i name ->
          ignore
            (Automaton.Builder.add_state builder
               ~props:(Universe.names_of_set props labels.(i))
               name))
        state_names;
      Array.iteri
        (fun src ts ->
          List.iter
            (fun (t : Automaton.trans) ->
              Automaton.Builder.add_trans builder ~src:state_names.(src)
                ~inputs:(Universe.names_of_set inputs t.input)
                ~outputs:(Universe.names_of_set outputs t.output)
                ~dst:state_names.(t.dst) ())
            ts)
        trans;
      Automaton.Builder.set_initial builder (List.map (fun i -> state_names.(i)) initial);
      Automaton.Builder.build builder
    end
  in
  { auto; left; right; pairs }

(* Joint-move enumerator over a live hash join: the combined interaction
   label is assembled on the fly by shifting the right operand's signals past
   the left operand's universe. *)
let join_moves (left : Automaton.t) (right : Automaton.t) =
  let in_shift = Universe.size left.Automaton.inputs in
  let out_shift = Universe.size left.Automaton.outputs in
  let join = make_join left right in
  fun s s' emit ->
    ignore
      (join (s, s') (fun (t : Automaton.trans) (t' : Automaton.trans) ->
           emit
             (Bitset.union t.input (Bitset.shift in_shift t'.input))
             (Bitset.union t.output (Bitset.shift out_shift t'.output))
             t.dst t'.dst))

let parallel_unobserved (left : Automaton.t) (right : Automaton.t) =
  bfs_product ~moves:(join_moves left right) left right

let observe_product ~start_us (p : product) =
  if start_us <> None || Metrics.enabled () then begin
    let states = Automaton.num_states p.auto in
    (* the transition count walks every adjacency list — worth it for the
       size histograms, too slow for the per-span fast path when only
       tracing is on *)
    if Metrics.enabled () then begin
      Metrics.observe m_product_states (float_of_int states);
      Metrics.observe m_product_transitions
        (float_of_int (Automaton.num_transitions p.auto))
    end;
    match start_us with
    | Some start_us ->
      Trace.complete ~name:"ts.compose" ~start_us
        ~args:
          [
            ("left", Trace.Str p.left.Automaton.name);
            ("right", Trace.Str p.right.Automaton.name);
            ("states", Trace.Int states);
          ]
        ()
    | None -> ()
  end

let parallel left right =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let p = parallel_unobserved left right in
  observe_product ~start_us:t0 p;
  p

let parallel_many = function
  | [] -> invalid_arg "Compose.parallel_many: empty list"
  | [ m ] -> m
  | m :: rest -> List.fold_left (fun acc m' -> (parallel acc m').auto) m rest

let left_state p s = fst p.pairs.(s)

let right_state p s = snd p.pairs.(s)

let project side (p : product) (r : Run.t) =
  let target = match side with `Left -> p.left | `Right -> p.right in
  let pick = match side with `Left -> fst | `Right -> snd in
  let states = List.map (fun s -> pick p.pairs.(s)) (Run.state_sequence r) in
  let io =
    List.map
      (fun (a, b) ->
        ( Universe.restrict p.auto.Automaton.inputs ~to_:target.Automaton.inputs a,
          Universe.restrict p.auto.Automaton.outputs ~to_:target.Automaton.outputs b ))
      (Run.trace r)
  in
  if r.Run.deadlock then Run.deadlocking ~states ~io else Run.regular ~states ~io

let project_left p r = project `Left p r

let project_right p r = project `Right p r

let stepper (left : Automaton.t) (right : Automaton.t) =
  let join = make_join left right in
  fun pair ->
    let rev = ref [] in
    ignore (join pair (fun t t' -> rev := (t, t') :: !rev));
    List.rev !rev

let find_pair p pair =
  let n = Array.length p.pairs in
  let rec go i = if i >= n then None else if p.pairs.(i) = pair then Some i else go (i + 1) in
  go 0

(* Incremental product reconstruction across a sequence of right operands
   that differ only in a few states' adjacency rows — the synthesis loop's
   context ∥ chaos(M_i) sequence.  The BFS itself is re-run every iteration
   (state numbering must stay byte-identical, and the reachable region can
   both grow and shrink), but the expensive part of each visit — the hash
   join over the pair's transitions — is served from a cache keyed by
   (left state, right state) and invalidated by the caller's dirty set.
   Right states keep their indices across operands (new ones append), so
   cached destinations stay valid as they are. *)
module Inc = struct
  type move = {
    mv_input : Bitset.t;
    mv_output : Bitset.t;
    mv_ldst : int;
    mv_rdst : int;
  }

  type entry = { e_version : int; e_moves : move array }

  type stats = {
    old_of : int array;
    dirty : int list;
    reused : int;
    total : int;
  }

  type t = {
    inc_left : Automaton.t;
    cache : (int * int, entry) Hashtbl.t;
    last_dirty : (int, int) Hashtbl.t; (* right state → version last invalidated *)
    mutable version : int;
    mutable prev_ids : (int * int, int) Hashtbl.t; (* (l, r) → prior product id *)
  }

  let m_reused =
    Metrics.counter "ts_product_pairs_reused_total"
      ~help:"Product state visits whose joint moves were served from the incremental cache."

  let create left =
    {
      inc_left = left;
      cache = Hashtbl.create 1024;
      last_dirty = Hashtbl.create 64;
      version = 0;
      prev_ids = Hashtbl.create 16;
    }

  let left_operand inc = inc.inc_left

  let parallel inc ~right ~dirty =
    let left = inc.inc_left in
    inc.version <- inc.version + 1;
    let v = inc.version in
    List.iter (fun r -> Hashtbl.replace inc.last_dirty r v) dirty;
    let live = lazy (join_moves left right) in
    let reused = ref 0 in
    let moves s s' emit =
      let hit =
        match Hashtbl.find_opt inc.cache (s, s') with
        | Some e
          when e.e_version >= Option.value (Hashtbl.find_opt inc.last_dirty s') ~default:0 ->
          incr reused;
          Array.iter (fun m -> emit m.mv_input m.mv_output m.mv_ldst m.mv_rdst) e.e_moves;
          true
        | _ -> false
      in
      if not hit then begin
        let acc = ref [] in
        (Lazy.force live) s s' (fun input output l_dst r_dst ->
            acc :=
              { mv_input = input; mv_output = output; mv_ldst = l_dst; mv_rdst = r_dst }
              :: !acc;
            emit input output l_dst r_dst);
        Hashtbl.replace inc.cache (s, s')
          { e_version = v; e_moves = Array.of_list (List.rev !acc) }
      end
    in
    let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
    let p = bfs_product ~moves left right in
    observe_product ~start_us:t0 p;
    let count = Array.length p.pairs in
    let old_of = Array.make count (-1) in
    let new_ids = Hashtbl.create (2 * count) in
    let dirty_new = ref [] in
    for id = count - 1 downto 0 do
      let pair = p.pairs.(id) in
      Hashtbl.replace new_ids pair id;
      (match Hashtbl.find_opt inc.prev_ids pair with
      | Some o -> old_of.(id) <- o
      | None -> ());
      let row_changed =
        match Hashtbl.find_opt inc.last_dirty (snd pair) with
        | Some dv -> dv = v
        | None -> false
      in
      if row_changed || old_of.(id) < 0 then dirty_new := id :: !dirty_new
    done;
    inc.prev_ids <- new_ids;
    Metrics.add m_reused !reused;
    (p, { old_of; dirty = !dirty_new; reused = !reused; total = count })
end
