module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
module Bitset = Mechaml_util.Bitset
module Trace = Mechaml_obs.Trace
module Metrics = Mechaml_obs.Metrics

let m_closure_states =
  Metrics.histogram "core_closure_states"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e5 11)
    ~help:"States per chaotic-closure automaton."

let m_closure_transitions =
  Metrics.histogram "core_closure_transitions"
    ~buckets:(Metrics.log_buckets ~lo:1. ~hi:1e6 13)
    ~help:"Transitions per chaotic-closure automaton."

let chaos_prop = "p_chaos"

let s_all = "s_all"

let s_delta = "s_delta"

let closed_suffix = "@0"

type origin = Core of string | Chaotic

let origin name =
  if name = s_all || name = s_delta then Chaotic
  else if String.length name > 2 && String.sub name (String.length name - 2) 2 = closed_suffix
  then Core (String.sub name 0 (String.length name - 2))
  else Core name

let max_alphabet = 30

let check_alphabet inputs outputs =
  let width = List.length inputs + List.length outputs in
  if width > max_alphabet then
    invalid_arg
      (Printf.sprintf
         "Chaos: |I| + |O| = %d is too large to enumerate the interaction powerset" width)

(* Closure numbering: [s_∀] and [s_δ] are pinned to states 0 and 1, and the
   open and closed copies of core state k follow at 2k+2 and 2k+3 — so
   growing the model only appends states, and no existing index moves. *)
let all_i = 0

let delta_i = 1

let open_copy k = (2 * k) + 2

let closed_copy k = (2 * k) + 3

(* Transitions into both chaos states for every input pattern [a] with
   [keep a], paired with every output pattern, in increasing pattern order.
   Subset k of a signal list is the bitset with pattern k in its Universe
   (of_list interns names in list order), so the rows reproduce the
   Builder-based construction byte for byte without materializing name
   lists. *)
let chaos_row ~n_in ~n_out keep =
  let row = ref [] in
  for a = n_in - 1 downto 0 do
    if keep a then begin
      let input = Bitset.of_int_unsafe a in
      for o = n_out - 1 downto 0 do
        let output = Bitset.of_int_unsafe o in
        row :=
          { Automaton.input; output; dst = all_i } :: { Automaton.input; output; dst = delta_i }
          :: !row
      done
    end
  done;
  !row

let chaotic_automaton ~name ~inputs ~outputs =
  check_alphabet inputs outputs;
  let inputs_u = Universe.of_list inputs and outputs_u = Universe.of_list outputs in
  let props_u = Universe.of_list [ chaos_prop ] in
  let chaos_label = Universe.set_of_names props_u [ chaos_prop ] in
  let n_in = 1 lsl Universe.size inputs_u and n_out = 1 lsl Universe.size outputs_u in
  Automaton.of_packed ~assume_unique_names:true ~name ~inputs:inputs_u ~outputs:outputs_u
    ~props:props_u
    ~state_names:[| s_all; s_delta |]
    ~labels:[| chaos_label; chaos_label |]
    ~trans:[| chaos_row ~n_in ~n_out (fun _ -> true); [] |]
    ~initial:[ all_i; delta_i ] ()

let check_state_names ~fn states =
  List.iter
    (fun s ->
      if s = s_all || s = s_delta then
        invalid_arg (Printf.sprintf "Chaos.%s: state name %S collides with a chaos state" fn s);
      if String.length s >= 2 && String.sub s (String.length s - 2) 2 = closed_suffix then
        invalid_arg
          (Printf.sprintf "Chaos.%s: state name %S collides with the %S copy suffix" fn s
             closed_suffix))
    states

(* The indexes the construction consults, kept alive by the incremental
   handle: core state positions, and per core state the input patterns
   already answered by a known transition or recorded as refused — the
   powerset scan asks "known or refused?" 2^|I| times per state. *)
type model_ix = {
  inputs_u : Universe.t;
  outputs_u : Universe.t;
  n_in : int;
  n_out : int;
  pos : (string, int) Hashtbl.t;
  mutable known : (int, unit) Hashtbl.t array;
  mutable refused : (int, unit) Hashtbl.t array;
}

let in_pattern ix signals = Bitset.to_int (Universe.set_of_names ix.inputs_u signals)

(* Position [states] after the ones [ix] already holds, and record the facts
   [trans]/[refusals]. *)
let extend_ix ix ~states ~trans ~refusals =
  let old_n_core = Hashtbl.length ix.pos in
  List.iteri (fun j s -> Hashtbl.replace ix.pos s (old_n_core + j)) states;
  let grow arr =
    Array.init (Hashtbl.length ix.pos) (fun k ->
        if k < old_n_core then arr.(k) else Hashtbl.create 8)
  in
  ix.known <- grow ix.known;
  ix.refused <- grow ix.refused;
  List.iter
    (fun (src, (i : Incomplete.interaction), _) ->
      Hashtbl.replace ix.known.(Hashtbl.find ix.pos src) (in_pattern ix i.in_signals) ())
    trans;
  List.iter
    (fun (s, inputs) -> Hashtbl.replace ix.refused.(Hashtbl.find ix.pos s) (in_pattern ix inputs) ())
    refusals

let index_model (m : Incomplete.t) =
  let inputs_u = Universe.of_list m.Incomplete.input_signals in
  let outputs_u = Universe.of_list m.Incomplete.output_signals in
  let ix =
    {
      inputs_u;
      outputs_u;
      n_in = 1 lsl Universe.size inputs_u;
      n_out = 1 lsl Universe.size outputs_u;
      pos = Hashtbl.create (2 * List.length m.Incomplete.states);
      known = [||];
      refused = [||];
    }
  in
  extend_ix ix ~states:m.Incomplete.states ~trans:m.Incomplete.trans
    ~refusals:m.Incomplete.refusals;
  ix

(* Known transitions grouped by source position, each group in model
   order. *)
let out_edges ix (m : Incomplete.t) =
  let out = Array.make (Hashtbl.length ix.pos) [] in
  List.iter
    (fun (src, i, dst) ->
      let k = Hashtbl.find ix.pos src in
      out.(k) <- (i, dst) :: out.(k))
    m.Incomplete.trans;
  Array.map List.rev out

(* Rows of the open and closed copies of core state [k], given its known
   transitions [out] in model order.  Each copy can move to each copy of a
   known target (Definition 9, the four ⊎-components over T); unknown
   interactions escape to chaos from the open copy only: every input set
   that is neither refused nor already answered, with every output set. *)
let core_rows ix k out =
  let known_row =
    List.concat_map
      (fun ((i : Incomplete.interaction), dst) ->
        let input = Universe.set_of_names ix.inputs_u i.in_signals in
        let output = Universe.set_of_names ix.outputs_u i.out_signals in
        let dk = Hashtbl.find ix.pos dst in
        [
          { Automaton.input; output; dst = open_copy dk };
          { Automaton.input; output; dst = closed_copy dk };
        ])
      out
  in
  let escapes =
    chaos_row ~n_in:ix.n_in ~n_out:ix.n_out (fun a ->
        not (Hashtbl.mem ix.known.(k) a || Hashtbl.mem ix.refused.(k) a))
  in
  (known_row @ escapes, known_row)

let closure_initial ix (m : Incomplete.t) =
  List.concat_map
    (fun q ->
      let k = Hashtbl.find ix.pos q in
      [ open_copy k; closed_copy k ])
    m.Incomplete.initial

let closure_unobserved ?(label_of = fun _ -> []) ?(extra_props = []) (m : Incomplete.t) =
  check_alphabet m.Incomplete.input_signals m.Incomplete.output_signals;
  check_state_names ~fn:"closure" m.Incomplete.states;
  let ix = index_model m in
  (* Proposition universe: declared props first, then label props in order
     of first mention over the states (the Builder's note-on-first-mention
     order). *)
  let declared = chaos_prop :: List.filter (fun p -> p <> chaos_prop) extra_props in
  let rev_props = ref (List.rev declared) in
  let state_props =
    List.map
      (fun s ->
        let ps = label_of s in
        List.iter (fun p -> if not (List.mem p !rev_props) then rev_props := p :: !rev_props) ps;
        ps)
      m.Incomplete.states
  in
  let props_u = Universe.of_list (List.rev !rev_props) in
  let n = (2 * List.length m.Incomplete.states) + 2 in
  let state_names = Array.make n "" in
  let labels = Array.make n (Universe.set_of_names props_u [ chaos_prop ]) in
  let trans = Array.make n [] in
  state_names.(all_i) <- s_all;
  state_names.(delta_i) <- s_delta;
  (* the embedded chaotic automaton T_c *)
  trans.(all_i) <- chaos_row ~n_in:ix.n_in ~n_out:ix.n_out (fun _ -> true);
  let out = out_edges ix m in
  List.iteri
    (fun k (s, ps) ->
      let l = Universe.set_of_names props_u ps in
      let open_row, closed_row = core_rows ix k out.(k) in
      state_names.(open_copy k) <- s;
      state_names.(closed_copy k) <- s ^ closed_suffix;
      labels.(open_copy k) <- l;
      labels.(closed_copy k) <- l;
      trans.(open_copy k) <- open_row;
      trans.(closed_copy k) <- closed_row)
    (List.combine m.Incomplete.states state_props);
  Automaton.of_packed
    ~name:("chaos(" ^ m.Incomplete.name ^ ")")
    ~inputs:ix.inputs_u ~outputs:ix.outputs_u ~props:props_u ~state_names ~labels ~trans
    ~initial:(closure_initial ix m) ()

(* -- incremental closure --------------------------------------------------- *)

let m_delta_edges =
  Metrics.counter "core_closure_delta_edges_total"
    ~help:"Transitions rebuilt by incremental closure updates (dirty rows only)."

let m_updates =
  Metrics.counter "core_closure_updates_total"
    ~help:"Incremental closure updates applied (full rebuilds not counted)."

(* Bookkeeping that lets [update] patch the previous closure instead of
   re-deriving it: the construction's indexes around the automaton it
   produced.  The incomplete model is append-only (states, transitions and
   refusals grow at the tail), so the delta between two models is recovered
   from plain element counts. *)
type inc = {
  i_label_of : string -> string list;
  i_extra_props : string list;
  i_ix : model_ix;
  mutable i_rev_props : string list; (* proposition universe, reversed *)
  mutable i_seen_trans : int;
  mutable i_seen_refusals : int;
  mutable i_auto : Automaton.t;
  mutable i_delta_edges : int;
  mutable i_total_delta_edges : int;
  mutable i_dirty : int list; (* closure states dirtied by the last update *)
}

let auto inc = inc.i_auto

let delta_edges inc = inc.i_delta_edges

let total_delta_edges inc = inc.i_total_delta_edges

let dirty_states inc = inc.i_dirty

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

(* Wrap an existing closure automaton of [m] (freshly built or replayed from
   a cache) into incremental bookkeeping.  [dirty] describes how [m] relates
   to the handle the caller is replacing, so product patching stays exact
   even when the automaton itself came from a memo hit. *)
let adopt_auto ~label_of ~extra_props ~dirty (m : Incomplete.t) a =
  {
    i_label_of = label_of;
    i_extra_props = extra_props;
    i_ix = index_model m;
    i_rev_props = List.rev (Universe.to_list a.Automaton.props);
    i_seen_trans = List.length m.Incomplete.trans;
    i_seen_refusals = List.length m.Incomplete.refusals;
    i_auto = a;
    i_delta_edges = 0;
    i_total_delta_edges = 0;
    i_dirty = dirty;
  }

let all_states_dirty (m : Incomplete.t) =
  List.concat (List.mapi (fun k _ -> [ open_copy k; closed_copy k ]) m.Incomplete.states)

let inc_closure ?(label_of = fun _ -> []) ?(extra_props = []) (m : Incomplete.t) =
  let a = closure_unobserved ~label_of ~extra_props m in
  adopt_auto ~label_of ~extra_props ~dirty:(all_states_dirty m) m a

(* Dirty delta of [m] relative to the handle: closure states whose adjacency
   rows differ.  The open copy of core state [k] changes on any new fact at
   [k] (a known edge appears and/or escapes disappear); the closed copy only
   when a new transition leaves [k]; both copies of a new state are new. *)
let delta_of inc (m : Incomplete.t) =
  let n_core = Hashtbl.length inc.i_ix.pos in
  let new_states = drop n_core m.Incomplete.states in
  let new_trans = drop inc.i_seen_trans m.Incomplete.trans in
  let new_refusals = drop inc.i_seen_refusals m.Incomplete.refusals in
  let dirty = Hashtbl.create 8 in
  List.iter
    (fun (src, _, _) ->
      match Hashtbl.find_opt inc.i_ix.pos src with
      | Some k ->
        Hashtbl.replace dirty (open_copy k) ();
        Hashtbl.replace dirty (closed_copy k) ()
      | None -> () (* a new state: dirtied below *))
    new_trans;
  List.iter
    (fun (s, _) ->
      match Hashtbl.find_opt inc.i_ix.pos s with
      | Some k -> Hashtbl.replace dirty (open_copy k) ()
      | None -> ())
    new_refusals;
  List.iteri
    (fun j _ ->
      Hashtbl.replace dirty (open_copy (n_core + j)) ();
      Hashtbl.replace dirty (closed_copy (n_core + j)) ())
    new_states;
  (new_states, new_trans, new_refusals, List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) dirty []))

let adopt ?(label_of = fun _ -> []) ?(extra_props = []) ~prev (m : Incomplete.t) a =
  match prev with
  | None -> adopt_auto ~label_of ~extra_props ~dirty:(all_states_dirty m) m a
  | Some inc ->
    let _, _, _, dirty = delta_of inc m in
    adopt_auto ~label_of:inc.i_label_of ~extra_props:inc.i_extra_props ~dirty m a

let structurally_equal (a : Automaton.t) (b : Automaton.t) =
  a.Automaton.state_names = b.Automaton.state_names
  && a.Automaton.labels = b.Automaton.labels
  && a.Automaton.trans = b.Automaton.trans
  && a.Automaton.initial = b.Automaton.initial
  && Universe.to_list a.Automaton.props = Universe.to_list b.Automaton.props
  && Universe.to_list a.Automaton.inputs = Universe.to_list b.Automaton.inputs
  && Universe.to_list a.Automaton.outputs = Universe.to_list b.Automaton.outputs

(* The index must agree as well: a stale spliced segment or a wrongly derived
   sorted view passes the structural comparison above.  Interaction ids are
   internal, so the index is compared through the queries it answers. *)
let index_equal (a : Automaton.t) (b : Automaton.t) =
  Automaton.num_transitions a = Automaton.num_transitions b
  && Seq.for_all
       (fun s ->
         List.for_all
           (fun (t : Automaton.trans) ->
             Automaton.accepts a s t.input t.output = Automaton.accepts b s t.input t.output
             && Automaton.successors a s t.input t.output
                = Automaton.successors b s t.input t.output)
           (Automaton.transitions_from a s))
       (Seq.init (Automaton.num_states a) Fun.id)

let update ?(debug = false) inc (m : Incomplete.t) =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let new_states, new_trans, new_refusals, dirty = delta_of inc m in
  if new_states = [] && new_trans = [] && new_refusals = [] then begin
    inc.i_delta_edges <- 0;
    inc.i_dirty <- []
  end
  else begin
    check_state_names ~fn:"update" new_states;
    let ix = inc.i_ix and old = inc.i_auto in
    let old_n = Automaton.num_states old and old_n_core = Hashtbl.length ix.pos in
    extend_ix ix ~states:new_states ~trans:new_trans ~refusals:new_refusals;
    let n = (2 * Hashtbl.length ix.pos) + 2 in
    (* proposition universe: new states append their first-mention props, so
       every existing label keeps its bits *)
    let new_props =
      List.map
        (fun s ->
          let ps = inc.i_label_of s in
          List.iter
            (fun p -> if not (List.mem p inc.i_rev_props) then inc.i_rev_props <- p :: inc.i_rev_props)
            ps;
          ps)
        new_states
    in
    let props_u = Universe.of_list (List.rev inc.i_rev_props) in
    (* every existing state keeps its index, name, label and — unless dirty —
       its row, shared as it is; new core copies append *)
    let state_names = Array.make n "" in
    let labels = Array.make n Bitset.empty in
    let rows = Array.make n [] in
    Array.blit old.Automaton.state_names 0 state_names 0 old_n;
    Array.blit old.Automaton.labels 0 labels 0 old_n;
    Array.blit old.Automaton.trans 0 rows 0 old_n;
    List.iteri
      (fun j (s, ps) ->
        let k = old_n_core + j in
        let l = Universe.set_of_names props_u ps in
        state_names.(open_copy k) <- s;
        state_names.(closed_copy k) <- s ^ closed_suffix;
        labels.(open_copy k) <- l;
        labels.(closed_copy k) <- l)
      (List.combine new_states new_props);
    let dirty_flag = Array.make n false in
    List.iter (fun s -> dirty_flag.(s) <- true) dirty;
    (* rebuild the dirty rows exactly as [closure_unobserved] would *)
    let out = out_edges ix m in
    let delta_edges = ref 0 in
    Array.iteri
      (fun k out_k ->
        if dirty_flag.(open_copy k) || dirty_flag.(closed_copy k) then begin
          let open_row, closed_row = core_rows ix k out_k in
          List.iter
            (fun (s, row) ->
              if dirty_flag.(s) then begin
                rows.(s) <- row;
                delta_edges := !delta_edges + List.length row
              end)
            [ (open_copy k, open_row); (closed_copy k, closed_row) ]
        end)
      out;
    let a =
      Automaton.patch ~old
        ~name:("chaos(" ^ m.Incomplete.name ^ ")")
        ~props:props_u ~state_names ~labels ~trans:rows ~initial:(closure_initial ix m)
        ~dirty:dirty_flag ()
    in
    inc.i_seen_trans <- List.length m.Incomplete.trans;
    inc.i_seen_refusals <- List.length m.Incomplete.refusals;
    inc.i_auto <- a;
    inc.i_delta_edges <- !delta_edges;
    inc.i_total_delta_edges <- inc.i_total_delta_edges + !delta_edges;
    inc.i_dirty <- dirty;
    Metrics.add m_delta_edges !delta_edges;
    Metrics.incr m_updates;
    if debug then begin
      let fresh =
        closure_unobserved ~label_of:inc.i_label_of ~extra_props:inc.i_extra_props m
      in
      if not (structurally_equal a fresh && index_equal a fresh) then
        failwith "Chaos.update: incremental closure diverged from the fresh construction"
    end
  end;
  (match t0 with
  | Some start_us ->
    Trace.complete ~name:"core.closure.update" ~start_us
      ~args:
        [
          ("model", Trace.Str m.Incomplete.name);
          ("delta_edges", Trace.Int inc.i_delta_edges);
          ("dirty", Trace.Int (List.length inc.i_dirty));
        ]
      ()
  | None -> ())

let closure ?label_of ?extra_props (m : Incomplete.t) =
  let t0 = if Trace.is_enabled () then Some (Trace.now_us ()) else None in
  let auto = closure_unobserved ?label_of ?extra_props m in
  if t0 <> None || Metrics.enabled () then begin
    let states = Automaton.num_states auto in
    if Metrics.enabled () then begin
      Metrics.observe m_closure_states (float_of_int states);
      Metrics.observe m_closure_transitions
        (float_of_int (Automaton.num_transitions auto))
    end;
    match t0 with
    | Some start_us ->
      Trace.complete ~name:"core.closure" ~start_us
        ~args:
          [ ("model", Trace.Str m.Incomplete.name); ("states", Trace.Int states) ]
        ()
    | None -> ()
  end;
  auto
