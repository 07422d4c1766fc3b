(* The repository benchmark: one closed-loop workload per run, over the
   verifier's public API, with every input generated from [--seed].

   An untraced run ([--trace 0]) reports the end-to-end metrics.  A traced
   run ([--trace 1]) alternates untraced and traced requests; the traced ones
   wrap the calls into each layer in spans kept by this file (the program's
   own tracer stays off) and feed the per-layer ledger.  Every verdict is
   checked against a known answer.  The last line of standard output is the
   result object; README.md describes the workloads and the metrics, and
   run.py builds and launches this program. *)

module Automaton = Mechaml_ts.Automaton
module Shard = Mechaml_ts.Shard
module Ctl = Mechaml_logic.Ctl
module Shardsat = Mechaml_mc.Shardsat
module Witness = Mechaml_mc.Witness
module Blackbox = Mechaml_legacy.Blackbox
module Observation = Mechaml_legacy.Observation
module Loop = Mechaml_core.Loop
module Families = Mechaml_scenarios.Families
module Campaign = Mechaml_engine.Campaign
module Report = Mechaml_engine.Report
module Client = Mechaml_serve.Client
module Wire = Mechaml_serve.Wire
module Prng = Mechaml_util.Prng
module Json = Mechaml_obs.Json

let now = Unix.gettimeofday

let ms s = s *. 1e3

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let ratio a b = if b > 0. then a /. b else 0.

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;  (** CPUs this process may use *)
  par : int;
      (** every worker count (campaign jobs, shard workers, daemon workers and
          handlers): [nproc], and at least 2 in a traced run so that the pool
          and the shard crew always run there *)
  max_requests : int;
  expect_wrong : bool;
  root : string;
  commit : string;
  part : int;
}

(* -- spans ---------------------------------------------------------------- *)

(* A request's spans live in its own recorder and move to the run's list
   when the request ends.  An untraced recorder reads no clock and keeps
   nothing. *)
module Span = struct
  type t = { id : int; name : string; parent : int; req : int; start : float; stop : float }

  type recorder = { req : int; traced : bool; root : int; mutable spans : t list }

  let ids = Atomic.make 1

  let fresh () = Atomic.fetch_and_add ids 1

  let recorder ~req ~traced = { req; traced; root = fresh (); spans = [] }

  let add r ~name ?(parent = r.root) ?(id = fresh ()) ~start ~stop () =
    if r.traced then r.spans <- { id; name; parent; req = r.req; start; stop } :: r.spans

  let time r ~name f =
    if not r.traced then f ()
    else begin
      let start = now () in
      let finish () = add r ~name ~start ~stop:(now ()) () in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let total r name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
      0. r.spans

  let all = ref []

  let keep r = if r.traced then all := List.rev_append r.spans !all
end

(* -- requests and workloads ------------------------------------------------- *)

type outcome = {
  verdicts : int;  (** verdicts checked *)
  failed : int;  (** of which wrong, missing or raised *)
  ledger : (string * float) list;  (** per-layer values (traced requests only) *)
  accounted : float;
      (** seconds of the request's wall clock its ledger attributes to layers *)
}

type instance = {
  verdicts_per_request : int;
  request : Span.recorder -> outcome;
  teardown : unit -> float;  (** stops what setup started; returns peak RSS in MiB *)
  used : (string * int) list;  (** jobs, shards and workers actually used *)
}

let mismatches = Atomic.make 0

let report_mismatch fmt =
  Printf.ksprintf
    (fun msg -> if Atomic.fetch_and_add mismatches 1 < 10 then prerr_endline ("perfbench: " ^ msg))
    fmt

let check ~what ~expected got =
  if expected = got then 0
  else begin
    report_mismatch "%s: expected %S, got %S" what expected got;
    1
  end

let vmhwm_mib pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

(* -- inputs: the combination lock with a seeded secret ------------------------ *)

(* The lock of {!Families.lock_legacy} and its context, with the secret word
   drawn from the run's seed instead of fixed by [n]. *)
let secret_of rng n = List.init n (fun _ -> if Prng.bool rng then "a" else "b")

let other = function "a" -> "b" | _ -> "a"

(* [spares] adds unused input and output signals to the interface, as
   {!Families.wide_lock_box} does: each one doubles the chaotic closure's
   escape fan-out while the protocol to learn stays the same. *)
let spare_names (ki, ko) =
  (List.init ki (Printf.sprintf "sp_i%d"), List.init ko (Printf.sprintf "sp_o%d"))

let lock_machine ?(spares = (0, 0)) ~secret () =
  let n = List.length secret in
  let extra_in, extra_out = spare_names spares in
  let b =
    Automaton.Builder.create ~name:(Printf.sprintf "lock%d" n) ~inputs:([ "a"; "b" ] @ extra_in)
      ~outputs:("open" :: extra_out) ()
  in
  let locked i = Printf.sprintf "locked_%d" i in
  List.iteri
    (fun i sym ->
      let src = locked i in
      if i = n - 1 then
        Automaton.Builder.add_trans b ~src ~inputs:[ sym ] ~outputs:[ "open" ] ~dst:"unlocked" ()
      else Automaton.Builder.add_trans b ~src ~inputs:[ sym ] ~dst:(locked (i + 1)) ();
      Automaton.Builder.add_trans b ~src ~inputs:[ other sym ] ~dst:(locked 0) ();
      Automaton.Builder.add_trans b ~src ~dst:src ())
    secret;
  List.iter
    (fun inputs -> Automaton.Builder.add_trans b ~src:"unlocked" ~inputs ~dst:(locked 0) ())
    [ [ "a" ]; [ "b" ]; [] ];
  Automaton.Builder.set_initial b [ locked 0 ];
  Automaton.Builder.build b

let lock_context ?(spares = (0, 0)) ~secret ~depth () =
  let extra_in, extra_out = spare_names spares in
  let b =
    Automaton.Builder.create
      ~name:(Printf.sprintf "lockContext%d" depth)
      ~inputs:("open" :: extra_out) ~outputs:([ "a"; "b" ] @ extra_in) ()
  in
  let state i = Printf.sprintf "c%d" i in
  List.iteri
    (fun i sym ->
      if i < depth then
        Automaton.Builder.add_trans b ~src:(state i) ~outputs:[ sym ] ~dst:(state (i + 1)) ())
    secret;
  Automaton.Builder.add_trans b ~src:(state depth)
    ~outputs:[ other (List.nth secret depth) ]
    ~dst:(state 0) ();
  Automaton.Builder.set_initial b [ state 0 ];
  Automaton.Builder.build b

let lock_box legacy = Blackbox.of_automaton ~port:"lockPort" legacy

(* -- known answers for the bundled jobs ------------------------------------- *)

(* Jobs whose time is supervisor backoff (fault injection sleeps between
   retries) or that fail by design never enter a matrix. *)
let designed_failures = [ "railcab/flaky/constraint/bfs" ]

let steady_bundled () =
  List.filter
    (fun (s : Campaign.spec) -> s.Campaign.inject = None && not (List.mem s.Campaign.id designed_failures))
    (Campaign.bundled ())

let canonical_lines cfg =
  let path = Filename.concat cfg.root "test/campaign_seed.canonical" in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let tbl = Hashtbl.create 32 in
      (try
         while true do
           let line = input_line ic in
           match String.index_opt line '|' with
           | Some i -> Hashtbl.replace tbl (String.sub line 0 i) line
           | None -> ()
         done
       with End_of_file -> ());
      tbl)

let canonical_line o = String.trim (Report.canonical [ o ])

(* The expected answer of every job id: a full canonical line for bundled
   jobs, a verdict for generated ones.  [--expect-wrong] corrupts the first
   entry so the run must report a failure. *)
type expectation = Line of string | Verdict of string

let expectations cfg ~bundled ~generated =
  let lines = canonical_lines cfg in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Campaign.spec) ->
      match Hashtbl.find_opt lines s.Campaign.id with
      | Some line -> Hashtbl.replace tbl s.Campaign.id (Line line)
      | None -> failwith ("no canonical line for bundled job " ^ s.Campaign.id))
    bundled;
  List.iter (fun (s : Campaign.spec) -> Hashtbl.replace tbl s.Campaign.id (Verdict "proved")) generated;
  (if cfg.expect_wrong then
     match generated @ bundled with
     | s :: _ -> Hashtbl.replace tbl s.Campaign.id (Verdict "real violation (tested)")
     | [] -> ());
  tbl

let check_outcomes ~what tbl ~ids (outs : Campaign.outcome list) =
  let got = List.map (fun (o : Campaign.outcome) -> o.Campaign.spec_id) outs in
  if List.sort compare got <> List.sort compare ids then begin
    report_mismatch "%s: answered jobs differ from the submitted ones" what;
    List.length ids
  end
  else
    isum
      (fun (o : Campaign.outcome) ->
        match Hashtbl.find tbl o.Campaign.spec_id with
        | Line l -> check ~what ~expected:l (canonical_line o)
        | Verdict v -> check ~what ~expected:v (Campaign.verdict_string o.Campaign.verdict))
      outs

(* The time a job's stage timers measured: closure, check and test. *)
let stage_seconds (o : Campaign.outcome) =
  o.Campaign.closure_seconds +. o.Campaign.check_seconds +. o.Campaign.test_seconds

(* Layer totals a list of job outcomes carries (worker time, summed over
   jobs).  Product and fixpoint are one number here: the check stage. *)
let outcome_ledger (outs : Campaign.outcome list) =
  let f g = fsum g outs and i g = float_of_int (isum g outs) in
  let lookups =
    i (fun o ->
        let c = o.Campaign.cache in
        c.closure_hits + c.closure_misses + c.check_hits + c.check_misses)
  in
  let hits = i (fun o -> o.Campaign.cache.closure_hits + o.Campaign.cache.check_hits) in
  let seeded = List.filter (fun (o : Campaign.outcome) -> o.Campaign.iterations > 1) outs in
  [
    ("closure.busy_ms", ms (f (fun o -> o.Campaign.closure_seconds)));
    ("closure.states", i (fun o -> o.Campaign.max_closure_states));
    ("closure.delta_edges", i (fun o -> o.Campaign.closure_delta_edges));
    ("product.states", i (fun o -> o.Campaign.max_product_states));
    ( "product.reused_frac",
      ratio
        (i (fun o -> o.Campaign.product_states_reused))
        (i (fun o -> o.Campaign.max_product_states * o.Campaign.iterations)) );
    ("check.busy_ms", ms (f (fun o -> o.Campaign.check_seconds)));
    ( "check.warm_frac",
      ratio (fsum (fun o -> o.Campaign.sat_seed_hit_rate) seeded) (float_of_int (List.length seeded))
    );
    ("test.busy_ms", ms (f (fun o -> o.Campaign.test_seconds)));
    ("test.runs", i (fun o -> o.Campaign.tests_executed));
    ("test.steps", i (fun o -> o.Campaign.test_steps));
    ( "loop.other_ms",
      ms (f (fun o -> o.Campaign.duration_s -. stage_seconds o)) );
    ("loop.iterations", i (fun o -> o.Campaign.iterations));
    ("cache.lookups", lookups);
    ("cache.hit_frac", ratio hits lookups);
  ]

(* -- synth: one Loop.run to Proved per request --------------------------------- *)

(* The shape of the t14 experiment: a wide-alphabet lock of 12 symbols with
   4 spare inputs and 3 spare outputs, a context that stops one symbol
   short, and a secret drawn from the seed.  The chaotic closure and its
   incremental update do most of the work. *)
let synth_n = 12

let synth_spares = (4, 3)

let synth cfg =
  let secret = secret_of (Prng.create ~seed:cfg.seed) synth_n in
  let legacy = lock_box (lock_machine ~spares:synth_spares ~secret ()) in
  let context = lock_context ~spares:synth_spares ~secret ~depth:(synth_n - 1) () in
  let expected = if cfg.expect_wrong then "real violation (tested)" else "proved" in
  let loop ?on_closure ?on_check ?observe () =
    Loop.run ~label_of:Families.lock_label_of ~context ~property:Families.lock_property ~legacy
      ?on_closure ?on_check ?observe ()
  in
  let verdict_string (res : Loop.result) =
    match res.Loop.verdict with
    | Loop.Proved -> "proved"
    | Loop.Real_violation _ -> "real violation (tested)"
    | Loop.Exhausted _ -> "exhausted"
    | Loop.Degraded _ -> "degraded"
  in
  let request r =
    if not r.Span.traced then begin
      let res = loop () in
      { verdicts = 1; failed = check ~what:"synth" ~expected (verdict_string res); ledger = [];
        accounted = 0. }
    end
    else begin
      let alloc = ref 0. in
      let on_closure ~model:_ ~compute =
        let before = Gc.allocated_bytes () in
        let closure = Span.time r ~name:"closure" compute in
        alloc := !alloc +. (Gc.allocated_bytes () -. before);
        closure
      in
      let on_check ~product:_ ~formulas:_ ~compute = Span.time r ~name:"fixpoint" compute in
      let observe ~inputs =
        Span.time r ~name:"test" (fun () -> Ok (Observation.observe ~box:legacy ~inputs))
      in
      let t0 = now () in
      let res = loop ~on_closure ~on_check ~observe () in
      let wall = now () -. t0 in
      let iters = res.Loop.iterations in
      let imax f = float_of_int (List.fold_left (fun acc it -> max acc (f it)) 0 iters) in
      let fixpoint = Span.total r "fixpoint" in
      let stages = res.Loop.closure_seconds +. res.Loop.check_seconds +. res.Loop.test_seconds in
      let product_states = imax (fun it -> it.Loop.product_states) in
      {
        verdicts = 1;
        failed = check ~what:"synth" ~expected (verdict_string res);
        ledger =
          [
            ("closure.busy_ms", ms res.Loop.closure_seconds);
            ("closure.states", imax (fun it -> it.Loop.closure_states));
            ("closure.delta_edges", float_of_int res.Loop.closure_delta_edges);
            ("closure.alloc_mib", !alloc /. 1048576.);
            ("product.busy_ms", ms (res.Loop.check_seconds -. fixpoint));
            ("product.states", product_states);
            ( "product.reused_frac",
              ratio
                (float_of_int res.Loop.product_states_reused)
                (product_states *. float_of_int (List.length iters)) );
            ("fixpoint.busy_ms", ms fixpoint);
            ("check.busy_ms", ms res.Loop.check_seconds);
            ("check.warm_frac", res.Loop.sat_seed_hit_rate);
            ("test.busy_ms", ms res.Loop.test_seconds);
            ("test.runs", float_of_int res.Loop.tests_executed);
            ("test.steps", float_of_int res.Loop.test_steps_executed);
            ("loop.other_ms", ms (wall -. stages));
            ("loop.iterations", float_of_int (List.length iters));
          ];
        (* the loop's stage timers; learning and the loop's own code stay
           unaccounted *)
        accounted = stages;
      }
    end
  in
  {
    verdicts_per_request = 1;
    request;
    teardown = (fun () -> vmhwm_mib "self");
    used = [];
  }

(* -- campaign: one Campaign.run with a fresh cache per request --------------- *)

let lock_sizes = [ 24; 48; 72; 96 ]

let campaign cfg =
  let rng = Prng.create ~seed:cfg.seed in
  let generated =
    List.concat_map
      (fun n ->
        let secret = secret_of rng n and depth = n / 2 in
        let legacy = lock_machine ~secret () in
        let context = lock_context ~secret ~depth () in
        List.map
          (fun strategy ->
            Campaign.job
              ~id:
                (Printf.sprintf "lock/n%d-d%d/seed%d/%s" n depth cfg.seed
                   (Campaign.strategy_string strategy))
              ~family:"lock" ~context ~property:Families.lock_property ~strategy
              ~label_of:Families.lock_label_of (fun () -> lock_box legacy))
          [ Witness.Bfs_shortest; Witness.Dfs_first ])
      lock_sizes
  in
  let bundled = steady_bundled () in
  let specs = generated @ bundled in
  let ids = List.map (fun (s : Campaign.spec) -> s.Campaign.id) specs in
  let tbl = expectations cfg ~bundled ~generated in
  let jobs = cfg.par in
  let request r =
    let verdicts = List.length specs in
    if not r.Span.traced then
      let outs = Campaign.run ~jobs specs in
      { verdicts; failed = check_outcomes ~what:"campaign" tbl ~ids outs; ledger = []; accounted = 0. }
    else begin
      (* A job starts when the pool calls its make_box; each job writes only
         its own slot, and Campaign.run joins the workers before we read. *)
      let starts = Array.make verdicts 0. in
      let timed =
        List.mapi
          (fun k (s : Campaign.spec) ->
            {
              s with
              Campaign.make_box =
                (fun () ->
                  starts.(k) <- now ();
                  s.Campaign.make_box ());
            })
          specs
      in
      let run_id = Span.fresh () in
      let t0 = now () in
      let outs = Campaign.run ~jobs timed in
      let wall = now () -. t0 in
      Span.add r ~name:"campaign.run" ~id:run_id ~start:t0 ~stop:(t0 +. wall) ();
      List.iteri
        (fun k (o : Campaign.outcome) ->
          Span.add r ~name:"campaign.job" ~parent:run_id ~start:starts.(k)
            ~stop:(starts.(k) +. o.Campaign.duration_s) ())
        outs;
      let busy = fsum (fun (o : Campaign.outcome) -> o.Campaign.duration_s) outs in
      let per_worker s = s /. float_of_int jobs in
      {
        verdicts;
        failed = check_outcomes ~what:"campaign" tbl ~ids outs;
        ledger =
          outcome_ledger outs
          @ [
              ("pool.busy_frac", ratio busy (float_of_int jobs *. wall));
              ("pool.idle_ms", ms (wall -. per_worker busy));
            ];
        (* the stage timers per worker; learning, the pool's spawn and idle
           time and the benchmark's own code stay unaccounted *)
        accounted = per_worker (fsum stage_seconds outs);
      }
    end
  in
  {
    verdicts_per_request = List.length specs;
    request;
    teardown = (fun () -> vmhwm_mib "self");
    used = [ ("jobs", jobs) ];
  }

(* -- serve: a mechaverify serve daemon, two tenants submitting in a loop ---- *)

let out_dir cfg = Filename.concat cfg.root "_build/perfbench"

let daemons = ref []

let stop_daemon pid =
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.02;
      reap (tries - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap 500;
  daemons := List.filter (( <> ) pid) !daemons

let () = at_exit (fun () -> List.iter stop_daemon !daemons)

let start_daemon cfg ~workers =
  let exe = Filename.concat cfg.root "_build/default/bin/mechaverify.exe" in
  let log = Filename.concat (out_dir cfg) (Printf.sprintf "serve-%d.log" (Unix.getpid ())) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let w = string_of_int workers in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--host"; "127.0.0.1"; "--port"; "0"; "--workers"; w; "--handlers"; w |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  daemons := pid :: !daemons;
  let read_port () =
    let ic = open_in log in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line -> (
            match Scanf.sscanf line "mechaserve listening on %_[^:]:%d" Fun.id with
            | port -> Some port
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
          | exception End_of_file -> None
        in
        scan ())
  in
  let rec wait tries =
    match read_port () with
    | Some port -> port
    | None when tries > 0 && fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | None -> failwith "perfbench: the serve daemon did not report a port"
  in
  let port = wait 1500 in
  (pid, log, { Client.host = "127.0.0.1"; port })

let serve_ids = List.filter (fun s -> s.Campaign.id <> "lock/n96-d48/locked/bfs")

(* One submission of the ids under [tenant], with the moments its events
   arrived (only when traced). *)
type submission = {
  sent : float;
  accepted : float;
  first : float;  (** first verdict *)
  finished : float;  (** [done] event *)
  answer : (Campaign.outcome list, Client.error) result;
}

let submit ep ~tenant ~ids ~traced =
  let accepted = ref nan and first = ref nan and finished = ref nan in
  let on_event ev =
    let t = now () in
    match ev with
    | Wire.Accepted _ -> accepted := t
    | Wire.Verdict _ -> if Float.is_nan !first then first := t
    | Wire.Done _ -> finished := t
  in
  let on_event = if traced then Some on_event else None in
  let sent = now () in
  let answer = Client.submit ep ~tenant ~ids ?on_event ~io_timeout_s:60. () in
  { sent; accepted = !accepted; first = !first; finished = !finished; answer }

let serve cfg =
  let bundled = serve_ids (steady_bundled ()) in
  let ids = List.map (fun (s : Campaign.spec) -> s.Campaign.id) bundled in
  let tbl = expectations cfg ~bundled ~generated:[] in
  let workers = cfg.par in
  let pid, log, ep = start_daemon cfg ~workers in
  let tenants = List.init 2 (fun k -> Printf.sprintf "bench-%d-%c" cfg.seed (Char.chr (97 + k))) in
  let per_tenant = List.length ids in
  (* A request is one round: both tenants submit at the same moment, each
     on its own connection, and the request ends with the last verdict of
     either.  Every round then meets the same contention; tenants that
     submit freely drift between overlapping and taking turns for seconds
     at a time, which gives requests of two costs. *)
  let request r =
    let slots = Array.make (List.length tenants) None in
    let threads =
      List.mapi
        (fun k tenant ->
          Thread.create
            (fun () -> slots.(k) <- Some (submit ep ~tenant ~ids ~traced:r.Span.traced))
            ())
        tenants
    in
    List.iter Thread.join threads;
    let subs = Array.to_list (Array.map Option.get slots) in
    let failed =
      isum
        (fun s ->
          match s.answer with
          | Ok outs -> check_outcomes ~what:"serve" tbl ~ids outs
          | Error e ->
            report_mismatch "serve: %s" (Client.error_string e);
            per_tenant)
        subs
    in
    let rejects =
      isum (fun s -> match s.answer with Error (Client.Busy _) -> 1 | _ -> 0) subs
    in
    let verdicts = per_tenant * List.length subs in
    let outs = List.concat_map (fun s -> Result.value ~default:[] s.answer) subs in
    if not r.Span.traced || failed > 0 then
      { verdicts; failed; ledger = [ ("serve.rejects", float_of_int rejects) ]; accounted = 0. }
    else begin
      List.iter
        (fun s ->
          let id = Span.fresh () in
          Span.add r ~name:"serve.submit" ~id ~start:s.sent ~stop:s.finished ();
          Span.add r ~name:"serve.accept" ~parent:id ~start:s.sent ~stop:s.accepted ();
          Span.add r ~name:"serve.first_verdict" ~parent:id ~start:s.accepted ~stop:s.first ();
          Span.add r ~name:"serve.tail" ~parent:id ~start:s.first ~stop:s.finished ())
        subs;
      let mean f = fsum f subs /. float_of_int (List.length subs) in
      {
        verdicts;
        failed;
        ledger =
          outcome_ledger outs
          @ [
              ("serve.accept_ms", ms (mean (fun s -> s.accepted -. s.sent)));
              ("serve.first_verdict_ms", ms (mean (fun s -> s.first -. s.accepted)));
              ("serve.tail_ms", ms (mean (fun s -> s.finished -. s.first)));
              ("serve.rejects", 0.);
            ];
        (* the daemon's stage timers per worker; admission, queueing,
           streaming, cache lookups and learning stay unaccounted *)
        accounted = fsum stage_seconds outs /. float_of_int workers;
      }
    end
  in
  let teardown () =
    let rss = vmhwm_mib (string_of_int pid) in
    stop_daemon pid;
    (try Sys.remove log with Sys_error _ -> ());
    rss
  in
  {
    verdicts_per_request = List.length tenants * per_tenant;
    request;
    teardown;
    used = [ ("workers", workers); ("handlers", workers) ];
  }

(* -- explore: two sharded products checked per request -------------------- *)

(* The narrow product: a coprime mesh whose reachable part is the full
   [w * h] grid along one diagonal, so each BFS level holds about one state
   (the shape of t18). *)
let mesh_pair ~w ~h =
  let left =
    let b = Automaton.Builder.create ~name:"meshL" ~inputs:[] ~outputs:[ "q"; "r" ] () in
    let st = Printf.sprintf "l%d" in
    for i = 0 to w - 1 do
      Automaton.Builder.add_trans b ~src:(st i) ~outputs:[ "q" ] ~dst:(st ((i + 1) mod w)) ();
      Automaton.Builder.add_trans b ~src:(st i) ~outputs:[ "r" ] ~dst:(st 0) ()
    done;
    Automaton.Builder.set_initial b [ st 0 ];
    Automaton.Builder.build b
  in
  let right =
    let b = Automaton.Builder.create ~name:"meshR" ~inputs:[ "q"; "r" ] ~outputs:[] () in
    let st = Printf.sprintf "r%d" in
    for j = 0 to h - 1 do
      Automaton.Builder.add_trans b ~src:(st j) ~inputs:[ "q" ] ~dst:(st ((j + 1) mod h)) ();
      Automaton.Builder.add_trans b ~src:(st j) ~inputs:[ "r" ] ~dst:(st 0) ()
    done;
    Automaton.Builder.set_initial b [ st 0 ];
    Automaton.Builder.build b
  in
  (left, right)

(* The wide product: two independent counters; each joint step advances one
   of them, so the [w * h] torus is reached in [w + h - 2] BFS levels. *)
let grid_pair ~w ~h =
  let left =
    let b = Automaton.Builder.create ~name:"gridL" ~inputs:[] ~outputs:[ "u" ] () in
    let st = Printf.sprintf "x%d" in
    for i = 0 to w - 1 do
      Automaton.Builder.add_trans b ~src:(st i) ~dst:(st ((i + 1) mod w)) ();
      Automaton.Builder.add_trans b ~src:(st i) ~outputs:[ "u" ] ~dst:(st i) ()
    done;
    Automaton.Builder.set_initial b [ st 0 ];
    Automaton.Builder.build b
  in
  let right =
    let b = Automaton.Builder.create ~name:"gridR" ~inputs:[ "u" ] ~outputs:[] () in
    let st = Printf.sprintf "y%d" in
    for j = 0 to h - 1 do
      Automaton.Builder.add_trans b ~src:(st j) ~inputs:[ "u" ] ~dst:(st ((j + 1) mod h)) ();
      Automaton.Builder.add_trans b ~src:(st j) ~dst:(st j) ()
    done;
    Automaton.Builder.set_initial b [ st 0 ];
    Automaton.Builder.build b
  in
  (left, right)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Both products have [w * h] states; the seed picks coprime sides among
   pairs of (almost) the same product.  The mesh explores them in [w * h]
   BFS levels, the torus in [w + h - 2]. *)
let sides = [ (143, 142); (149, 136); (151, 134); (157, 129); (163, 124); (167, 121) ]

let explore cfg =
  let config = Shard.config ~shards:2 ~workers:cfg.par () in
  let w, h = Prng.pick (Prng.create ~seed:cfg.seed) sides in
  assert (gcd w h = 1);
  let phi = Ctl.And (Ctl.deadlock_free, Ctl.Ag (None, Ctl.Not Ctl.Deadlock)) in
  let products = [ ("narrow", mesh_pair ~w ~h); ("wide", grid_pair ~w ~h) ] in
  let expected = if cfg.expect_wrong then "violated" else "holds" in
  let request r =
    let one (tag, (left, right)) =
      let sp = Span.time r ~name:("shard." ^ tag ^ ".build") (fun () -> Shard.explore ~config left right) in
      Fun.protect
        ~finally:(fun () -> Shard.close sp)
        (fun () ->
          let holds =
            Span.time r ~name:("shardsat." ^ tag) (fun () ->
                Shardsat.holds_initially (Shardsat.create sp) phi)
          in
          let what = "explore " ^ tag in
          check ~what ~expected (if holds then "holds" else "violated")
          + check ~what ~expected:(string_of_int (w * h)) (string_of_int (Shard.num_states sp)),
          (Shard.num_states sp, Shard.spills sp))
    in
    let results = List.map one products in
    let failed = isum (fun (f, _) -> min f 1) results in
    if not r.Span.traced then { verdicts = 2; failed; ledger = []; accounted = 0. }
    else begin
      let t name = Span.total r name in
      let build = t "shard.narrow.build" +. t "shard.wide.build" in
      let sat = t "shardsat.narrow" +. t "shardsat.wide" in
      let states = float_of_int (isum (fun (_, (s, _)) -> s) results) in
      {
        verdicts = 2;
        failed;
        ledger =
          [
            ("shard.narrow.build_ms", ms (t "shard.narrow.build"));
            ("shard.wide.build_ms", ms (t "shard.wide.build"));
            ("shard.states_per_s", ratio states build);
            ("shard.workers", float_of_int (Option.get config.Shard.workers));
            ("shard.spills", float_of_int (isum (fun (_, (_, s)) -> s) results));
            ("shardsat.narrow.busy_ms", ms (t "shardsat.narrow"));
            ("shardsat.wide.busy_ms", ms (t "shardsat.wide"));
            ("product.states", states);
          ];
        accounted = build +. sat;
      }
    end
  in
  {
    verdicts_per_request = 2;
    request;
    teardown = (fun () -> vmhwm_mib "self");
    used = [ ("shards", config.Shard.shards); ("shard_workers", Option.get config.Shard.workers) ];
  }

(* -- the speed of the CPU ----------------------------------------------------- *)

(* On a shared machine the CPU a part runs on slows down by up to 2.5x
   whenever another tenant contends for its core and caches, and the share
   of time it spends slowed drifts over minutes.  The probe is a fixed piece
   of work timed between requests, so run.py can tell how fast the CPU was
   around each request.  It inserts and looks up keys in an open-addressing
   int table that stays in the caches: hashing, probing and stores, whose
   slowdown under contention measured the same as the workloads' own.  It
   allocates nothing, so the program's heap cannot change its time. *)
module Probe = struct
  let size = 8192

  let slots = Array.make size (-1)

  let slot key = (key * 0x9E3779B1) lsr 7 land (size - 1)

  let fill keys =
    Array.fill slots 0 size (-1);
    for i = 0 to keys - 1 do
      let h = ref (slot (i * 7919)) in
      while slots.(!h) >= 0 do
        h := (!h + 1) land (size - 1)
      done;
      slots.(!h) <- i * 7919
    done;
    let found = ref 0 in
    for i = 0 to keys - 1 do
      let h = ref (slot (i * 7919)) in
      while slots.(!h) <> i * 7919 do
        h := (!h + 1) land (size - 1)
      done;
      found := !found + !h
    done;
    ignore (Sys.opaque_identity !found)

  (** Seconds one probe took. *)
  let run () =
    let t0 = now () in
    for _ = 1 to 4 do
      fill 4000
    done;
    now () -. t0
end

(* -- the run ------------------------------------------------------------------ *)

let workloads =
  [ ("synth", synth); ("campaign", campaign); ("serve", serve); ("explore", explore) ]

let warmup_requests = 3

(* A number JSON can carry: an interval whose end never arrived reads 0. *)
let num v = Json.Num (if Float.is_finite v then v else 0.)

let int k = Json.Num (float_of_int k)

let write_spans cfg ~run_record ~t_origin =
  let path =
    Filename.concat (out_dir cfg)
      (Printf.sprintf "spans-%s-%d-%d.json" cfg.workload cfg.seed cfg.part)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"run\": %s,\n \"spans\": [\n" (Json.to_string run_record);
      List.iteri
        (fun k (s : Span.t) ->
          Printf.fprintf oc "%s%s\n"
            (if k = 0 then "  " else " ,")
            (Json.to_string
               (Json.Obj
                  [
                    ("id", int s.id); ("name", Json.Str s.name); ("parent", int s.parent);
                    ("req", int s.req);
                    ("start_us", num (Float.round ((s.start -. t_origin) *. 1e6)));
                    ("dur_us", num (Float.round ((s.stop -. s.start) *. 1e6)));
                  ])))
        (List.sort (fun (a : Span.t) b -> compare a.id b.id) !Span.all);
      output_string oc " ]}\n")

(* One process: set up, warm up, then closed-loop requests until the
   deadline, with a probe before the set-up, after each of its steps and
   after every timed request.  Prints the run record, one line per timed
   request and a closing summary; run.py pools these lines over several
   processes.  Set-up time leaves out the time of its probes. *)
let run cfg make =
  let setup_probes = ref [ Probe.run () ] in
  let t_origin = now () in
  let probe () = setup_probes := Probe.run () :: !setup_probes in
  let attempted = ref 0 and failed = ref 0 in
  let tally (o : outcome) =
    attempted := !attempted + o.verdicts;
    failed := !failed + o.failed
  in
  let req_ids = Atomic.make 0 in
  let safe_request (inst : instance) r =
    try inst.request r
    with e ->
      report_mismatch "%s request raised %s" cfg.workload (Printexc.to_string e);
      { verdicts = inst.verdicts_per_request; failed = inst.verdicts_per_request; ledger = [];
        accounted = 0. }
  in
  let inst = make cfg in
  probe ();
  for _ = 1 to warmup_requests do
    let r = Span.recorder ~req:(Atomic.fetch_and_add req_ids 1) ~traced:false in
    tally (safe_request inst r);
    probe ()
  done;
  let setup_probes = !setup_probes in
  let first_probe = List.nth setup_probes (List.length setup_probes - 1) in
  let setup_s = now () -. t_origin -. (fsum Fun.id setup_probes -. first_probe) in
  let samples = ref [] in
  let start = now () in
  let deadline = start +. cfg.seconds in
  let rec go k before =
    if k < cfg.max_requests && now () < deadline then begin
      let traced = cfg.trace && k land 1 = 1 in
      let r = Span.recorder ~req:(Atomic.fetch_and_add req_ids 1) ~traced in
      let t0 = now () in
      let out = safe_request inst r in
      let t1 = now () in
      let after = Probe.run () in
      Span.add r ~name:"request" ~id:r.Span.root ~parent:0 ~start:t0 ~stop:t1 ();
      Span.keep r;
      samples := (traced, t1 -. t0, out, (before, after)) :: !samples;
      tally out;
      go (k + 1) after
    end
  in
  go 0 (List.hd setup_probes);
  let peak_rss = inst.teardown () in
  let used name = Option.value ~default:0 (List.assoc_opt name inst.used) in
  let run_record =
    Json.Obj
      [
        ("workload", Json.Str cfg.workload); ("seed", int cfg.seed); ("part", int cfg.part);
        ("seconds", num cfg.seconds); ("trace", Json.Bool cfg.trace); ("nproc", int cfg.nproc);
        ("commit", Json.Str cfg.commit); ("jobs", int (used "jobs"));
        ("shards", int (used "shards")); ("shard_workers", int (used "shard_workers"));
        ("workers", int (used "workers")); ("handlers", int (used "handlers"));
        ("verdicts_per_request", int inst.verdicts_per_request);
      ]
  in
  let print tag v = print_endline (Json.to_string (Json.Obj [ (tag, v) ])) in
  print "run" run_record;
  List.iter
    (fun (traced, wall, out, (before, after)) ->
      print "request"
        (Json.Obj
           [
             ("traced", Json.Bool traced); ("wall_ms", num (ms wall)); ("verdicts", int out.verdicts);
             ("probe_before_ms", num (ms before)); ("probe_after_ms", num (ms after));
             ("failed", int out.failed); ("accounted_ms", num (ms out.accounted));
             ("ledger", Json.Obj (List.map (fun (k, v) -> (k, num v)) out.ledger));
           ]))
    (List.rev !samples);
  if cfg.trace then write_spans cfg ~run_record ~t_origin;
  print "done"
    (Json.Obj
       [
         ("setup_s", num setup_s);
         ("setup_probes_ms", Json.List (List.rev_map (fun p -> num (ms p)) setup_probes));
         ("peak_rss_mib", num peak_rss);
         ("attempted", int !attempted); ("failed", int !failed);
       ])

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let max_requests = ref max_int in
  let expect_wrong = ref false and root = ref (Sys.getcwd ()) and commit = ref "unknown" in
  let part = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME synth | campaign | serve | explore");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 time the whole request (0) or also its layers (1)");
      ("--max-requests", Arg.Set_int max_requests, "N stop the timed phase after N requests");
      ("--expect-wrong", Arg.Set expect_wrong, " expect a wrong verdict (checks the checker)");
      ("--root", Arg.Set_string root, "DIR repository checkout (inputs, daemon, outputs)");
      ("--commit", Arg.Set_string commit, "ID source revision recorded with the run");
      ("--part", Arg.Set_int part, "K index of this process within a run (names the span file)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [options]";
  let make =
    match List.assoc_opt !workload workloads with
    | Some make -> make
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let nproc = Domain.recommended_domain_count () in
  let cfg =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      nproc;
      par = (if !trace = 1 then max 2 nproc else nproc);
      max_requests = !max_requests;
      expect_wrong = !expect_wrong;
      root = !root;
      commit = !commit;
      part = !part;
    }
  in
  let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  mkdir (Filename.concat cfg.root "_build");
  mkdir (out_dir cfg);
  run cfg make
