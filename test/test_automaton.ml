module Automaton = Mechaml_ts.Automaton
module Universe = Mechaml_ts.Universe
open Helpers

let simple () =
  automaton ~inputs:[ "go"; "stop" ] ~outputs:[ "ok" ]
    ~states:[ ("idle", [ "p.idle" ]); ("busy", [ "p.busy" ]) ]
    ~trans:[ ("idle", [ "go" ], [ "ok" ], "busy"); ("busy", [ "stop" ], [], "idle") ]
    ~initial:[ "idle" ] ()

let unit_tests =
  [
    test "builder constructs states in first-mention order" (fun () ->
        let m = simple () in
        check_int "2 states" 2 (Automaton.num_states m);
        check_string "state 0" "idle" (Automaton.state_name m 0);
        check_string "state 1" "busy" (Automaton.state_name m 1);
        check_int "2 transitions" 2 (Automaton.num_transitions m));
    test "state_index roundtrips" (fun () ->
        let m = simple () in
        check_int "busy" 1 (Automaton.state_index m "busy");
        Alcotest.(check (option int)) "missing" None (Automaton.state_index_opt m "zzz"));
    test "labels" (fun () ->
        let m = simple () in
        check_bool "idle has p.idle" true (Automaton.has_prop m 0 "p.idle");
        check_bool "idle lacks p.busy" false (Automaton.has_prop m 0 "p.busy");
        check_bool "unknown prop is false" false (Automaton.has_prop m 0 "nope"));
    test "accepts and successors" (fun () ->
        let m = simple () in
        let go = Universe.set_of_names m.Automaton.inputs [ "go" ] in
        let ok = Universe.set_of_names m.Automaton.outputs [ "ok" ] in
        let empty = Mechaml_util.Bitset.empty in
        check_bool "accepts go/ok" true (Automaton.accepts m 0 go ok);
        check_bool "rejects go/-" false (Automaton.accepts m 0 go empty);
        Alcotest.(check (list int)) "successor" [ 1 ] (Automaton.successors m 0 go ok));
    test "blocking detection" (fun () ->
        let m =
          automaton ~inputs:[] ~outputs:[] ~trans:[ ("a", [], [], "b") ] ~initial:[ "a" ] ()
        in
        check_bool "a not blocking" false (Automaton.is_blocking m 0);
        check_bool "b blocking" true (Automaton.is_blocking m 1));
    test "determinism notions" (fun () ->
        let det = simple () in
        check_bool "deterministic" true (Automaton.deterministic det);
        check_bool "input-deterministic" true (Automaton.input_deterministic det);
        let nondet =
          automaton ~inputs:[ "x" ] ~outputs:[ "y" ]
            ~trans:[ ("a", [ "x" ], [], "a"); ("a", [ "x" ], [ "y" ], "a") ]
            ~initial:[ "a" ] ()
        in
        (* Two different responses to the same input: deterministic in the
           paper's (s,A,B) sense, but not input-deterministic. *)
        check_bool "paper-deterministic" true (Automaton.deterministic nondet);
        check_bool "not input-deterministic" false (Automaton.input_deterministic nondet);
        let dup =
          automaton ~inputs:[ "x" ] ~outputs:[]
            ~trans:[ ("a", [ "x" ], [], "a"); ("a", [ "x" ], [], "b"); ("b", [], [], "b") ]
            ~initial:[ "a" ] ()
        in
        check_bool "same (s,A,B) twice" false (Automaton.deterministic dup));
    test "composable and orthogonal" (fun () ->
        let m = simple () in
        let peer =
          automaton ~name:"peer" ~inputs:[ "ok" ] ~outputs:[ "go"; "stop" ]
            ~trans:[ ("s", [], [], "s") ] ~initial:[ "s" ] ()
        in
        check_bool "composable" true (Automaton.composable m peer);
        check_bool "not orthogonal (connected)" false (Automaton.orthogonal m peer));
    test "builder validates signals" (fun () ->
        let b = Automaton.Builder.create ~name:"x" ~inputs:[ "a" ] ~outputs:[] () in
        match Automaton.Builder.add_trans b ~src:"s" ~inputs:[ "nope" ] ~dst:"s" () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "builder requires initial state" (fun () ->
        let b = Automaton.Builder.create ~name:"x" ~inputs:[] ~outputs:[] () in
        ignore (Automaton.Builder.add_state b "s");
        match Automaton.Builder.build b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected raise");
    test "restrict projects signals and merges duplicates" (fun () ->
        let m =
          automaton ~inputs:[ "a"; "hidden" ] ~outputs:[ "o" ]
            ~trans:
              [
                ("s", [ "a"; "hidden" ], [ "o" ], "t");
                ("s", [ "a" ], [ "o" ], "t");
                ("t", [], [], "t");
              ]
            ~initial:[ "s" ] ()
        in
        let restricted =
          Automaton.restrict m
            ~inputs:(Universe.of_list [ "a" ])
            ~outputs:(Universe.of_list [ "o" ])
            ~props:Universe.empty
        in
        (* both transitions collapse to a/o after hiding "hidden" *)
        check_int "merged" 1 (List.length (Automaton.transitions_from restricted 0)));
    test "relabel replaces universe" (fun () ->
        let m = simple () in
        let props = Universe.of_list [ "q" ] in
        let m' = Automaton.relabel m ~props (fun _ -> Universe.set_of_names props [ "q" ]) in
        check_bool "all labelled q" true (Automaton.has_prop m' 1 "q"));
    test "rename and map_states" (fun () ->
        let m = Automaton.rename (simple ()) "other" in
        check_string "renamed" "other" m.Automaton.name;
        let m' = Automaton.map_states m ~f:(fun s -> "S" ^ string_of_int s) in
        check_string "mapped" "S0" (Automaton.state_name m' 0));
    test "pp renders the state names" (fun () ->
        let s = Format.asprintf "%a" Automaton.pp (simple ()) in
        let contains hay needle =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        check_bool "mentions idle" true (contains s "idle");
        check_bool "mentions busy" true (contains s "busy"));
    test "successors keep list order when labels interleave" (fun () ->
        (* a/- is interned before -/-, so the segment's ids read 0 1 0 until
           the sorted view is derived *)
        let m =
          automaton ~inputs:[ "a" ] ~outputs:[]
            ~trans:[ ("s", [ "a" ], [], "t"); ("s", [], [], "s"); ("s", [ "a" ], [], "u") ]
            ~initial:[ "s" ] ()
        in
        let a = Universe.set_of_names m.Automaton.inputs [ "a" ] in
        let empty = Mechaml_util.Bitset.empty in
        let idx = Automaton.state_index m in
        Alcotest.(check (list int)) "both a-successors, in list order"
          [ idx "t"; idx "u" ] (Automaton.successors m (idx "s") a empty);
        Alcotest.(check (list int)) "silent move" [ idx "s" ]
          (Automaton.successors m (idx "s") empty empty);
        check_bool "same (s,A,B) twice" false (Automaton.deterministic m));
    test "patch interns a new label without touching the old automaton" (fun () ->
        let old = simple () in
        let go = Universe.set_of_names old.Automaton.inputs [ "go" ] in
        let stop = Universe.set_of_names old.Automaton.inputs [ "stop" ] in
        let empty = Mechaml_util.Bitset.empty in
        (* idle keeps its row; busy gains stop/- -> busy, a label old lacks *)
        ignore (Automaton.successors old 1 stop empty);
        let m =
          Automaton.patch ~old ~name:"patched" ~props:old.Automaton.props
            ~state_names:old.Automaton.state_names ~labels:old.Automaton.labels
            ~trans:
              [|
                Automaton.transitions_from old 0;
                Automaton.transitions_from old 1
                @ [ { Automaton.input = Mechaml_util.Bitset.union go stop; output = empty; dst = 1 } ];
              |]
            ~initial:old.Automaton.initial ~dirty:[| false; true |] ()
        in
        let both = Mechaml_util.Bitset.union go stop in
        Alcotest.(check (list int)) "new label answered" [ 1 ] (Automaton.successors m 1 both empty);
        Alcotest.(check (list int)) "old label kept" [ 0 ] (Automaton.successors m 1 stop empty);
        check_int "patched transitions" 3 (Automaton.num_transitions m);
        check_bool "old automaton does not learn the label" true
          (Automaton.interaction_id old both empty = None);
        check_int "old transitions" 2 (Automaton.num_transitions old));
  ]

let () = Alcotest.run "automaton" [ ("unit", unit_tests) ]
