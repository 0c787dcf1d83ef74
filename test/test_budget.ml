(* Work budgets of the four xmpbench workloads: the CI perf gate.

   Each case runs the benchmark's own measuring child,
   [xmpbench.exe child W --seed 1], in a fresh process with a fresh
   heap, and reads the last line it prints (one JSON object). The
   output digest must equal the one pinned in xmpbench/pinned.json, so
   a ceiling cannot be met by simply doing less work. Then the event
   count, the event-heap peak (closure events, timers and one head per
   FIFO lane; see Sim.stats) and the GC words allocated per event must
   stay at or under the ceilings below. None of these depends on how
   fast the machine is, so a noisy runner cannot move them; wall time
   is measured by xmpbench/run.py instead. The two sharded workloads
   run once more at [--domains 2], where only the digest is checked.
   Last, in this process, the live words one launched flow keeps are
   bounded per scheme, while it waits for its start and just after it
   ([Retained]), and so are those an idle built fabric keeps
   ([Idle]); and what a completed flow leaves behind is checked with
   weak pointers ([Finished]). Set-up and teardown must not feed the
   GC: no run forces a minor collection by growing a table with a young
   fill, and a finished set-up leaves next to nothing for the next minor
   collection to promote ([Setup_gc]). *)

let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` from the repo root it is the root. *)
let xmpbench_exe =
  locate [ "../xmpbench/xmpbench.exe"; "_build/default/xmpbench/xmpbench.exe" ]

let pinned_file = locate [ "../xmpbench/pinned.json"; "xmpbench/pinned.json" ]

type budget = {
  workload : string;
  events : int;
  heap_peak : int;
  minor_words : float;  (** per event *)
  major_words : float;  (** per event *)
}

(* Ceilings only go down. Raising one needs a CHANGES.md entry saying
   why. Events and heap peak are exact counts, so their ceilings are the
   measured values. GC words per event vary between children, because
   the child's timed set-up loop runs a speed-dependent number of times
   before the measured run and leaves the minor heap at a different
   fill: up to 13% on bulk.k4's minor words and 27% on its small major
   figure, 3% or less elsewhere (up to 10% on wan.2dc's major words).
   Their ceilings are about 1.25x the highest of seven child runs
   (2-vCPU x86-64 VM, OCaml 5.1.1), except wan.2dc's major words: 0.47,
   1.1x the highest of sixteen (0.427; eight run one at a time, eight
   four at a time), where portal mail was cut to the words each packet
   uses (0.5 before; 0.82 before a completed flow was freed at its
   completion and a built one slimmed). *)
let budgets =
  [
    {
      workload = "bulk.k4";
      events = 4_160_011;
      heap_peak = 86;
      minor_words = 0.68;
      major_words = 0.037;
    };
    {
      workload = "incast.k4";
      events = 3_512_910;
      heap_peak = 659;
      minor_words = 1.5;
      major_words = 0.16;
    };
    {
      workload = "websearch.k8";
      events = 3_237_891;
      heap_peak = 232;
      minor_words = 1.4;
      major_words = 0.36;
    };
    {
      workload = "wan.2dc";
      events = 2_863_932;
      heap_peak = 1656;
      minor_words = 1.25;
      major_words = 0.47;
    };
  ]

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

(* The raw value of ["key": value] in flat JSON text, quotes stripped. *)
let field json key =
  match find_sub json (Printf.sprintf "%S: " key) with
  | None -> Alcotest.failf "%s: no %S field" json key
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length json && not (String.contains ",}\n" json.[!stop])
    do
      incr stop
    done;
    let v = String.trim (String.sub json start (!stop - start)) in
    let n = String.length v in
    if n >= 2 && v.[0] = '"' then String.sub v 1 (n - 2) else v

let number json key =
  match float_of_string_opt (field json key) with
  | Some v -> v
  | None -> Alcotest.failf "%S is not a number in %s" key json

let last_line text =
  match
    List.rev
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
  with
  | l :: _ -> l
  | [] -> Alcotest.fail "the child printed nothing"

let run_child ?(domains = 1) workload =
  let out = Filename.temp_file "xmp_budget" ".json" in
  let code =
    Sys.command
      (Printf.sprintf "%s child %s --seed 1 --domains %d > %s"
         (Filename.quote xmpbench_exe) workload domains (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) (workload ^ ": child exits 0") 0 code;
  last_line text

let check_digest workload json =
  let pinned = In_channel.with_open_bin pinned_file In_channel.input_all in
  Alcotest.(check string)
    (workload ^ ": digest as pinned")
    (field pinned workload) (field json "digest")

let test_budget b () =
  let json = run_child b.workload in
  check_digest b.workload json;
  let at_most key measured ceiling pp =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s %s <= %s" b.workload key (pp measured)
         (pp ceiling))
      true (measured <= ceiling)
  in
  let count key ceiling =
    at_most key (int_of_float (number json key)) ceiling string_of_int
  in
  let per_event key ceiling =
    at_most key (number json key) ceiling (Printf.sprintf "%.4g")
  in
  count "engine.events" b.events;
  count "engine.heap_peak" b.heap_peak;
  per_event "gc.minor_words_per_event" b.minor_words;
  per_event "gc.major_words_per_event" b.major_words

(* The sharded workloads must also reach the pinned digest when their
   shards run on two domains, which hands every portal's mail between
   domains through the barrier. *)
let test_two_domains workload () =
  check_digest workload (run_child ~domains:2 workload)

(* Live heap words one launched flow keeps: 2000 flows of one scheme
   with a deferred start on a one-shard k=4 fat tree, measured as the
   growth of [live_words] between two [Gc.full_major] calls. Nothing but
   the simulator holds the flows, so this is the state a flow costs an
   open-loop run. While it waits for its start ([built = false]) that is
   the flow's record, its coupling group, its source and its start
   events. Just after the start instant ([built = true]) it is also the
   connections, their controllers, endpoint-table entries, timers and
   what the fabric grew to carry the first windows, but not the packets
   of those windows: the domain's packet pool keeps every record it ever
   created, so it is first filled with more free records than the start
   puts in flight, and the measured run creates none. *)
module Retained = struct
  module Time = Xmp_engine.Time
  module Shard = Xmp_net.Shard
  module Packet = Xmp_net.Packet
  module Queue_disc = Xmp_net.Queue_disc
  module Scheme = Xmp_workload.Scheme

  let flows = 2000
  let start = Time.ms 10

  let fill_pool n =
    List.init n (fun seq ->
        Packet.data ~flow:0 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq ~ect:false
          ~cwr:false ~ts:Time.zero)
    |> List.iter Packet.release

  let words_per_flow ~built scheme =
    let disc () =
      Queue_disc.create ~policy:(Queue_disc.Threshold_mark 10)
        ~capacity_pkts:100
    in
    let cluster = Shard.create ~shards:1 () in
    ignore (Xmp_net.Fat_tree.create ~cluster ~k:4 ~disc ());
    let net = Shard.net cluster 0 in
    let paths = List.init (Scheme.n_subflows scheme) Fun.id in
    let launcher = Scheme.launcher scheme Scheme.default_overrides in
    let launch flow =
      let src = flow mod 16 in
      (* four hosts per pod: [src + 4] is in the next pod, 4 paths away *)
      let dst = (src + 4) mod 16 in
      ignore
        (Scheme.launch ~net ~flow ~src ~dst ~paths ~size_segments:100
           ~start_at:start launcher)
    in
    fill_pool 8192;
    Gc.full_major ();
    let before = (Gc.stat ()).Gc.live_words in
    let created = Packet.pool_created () in
    for flow = 0 to flows - 1 do
      launch flow
    done;
    if built then Shard.run ~until:start cluster;
    Gc.full_major ();
    let after = (Gc.stat ()).Gc.live_words in
    Alcotest.(check int) "no packet record created" created
      (Packet.pool_created ());
    ignore (Sys.opaque_identity cluster);
    float_of_int (after - before) /. float_of_int flows
end

(* Ceilings only go down, at the measured value rounded up to a whole
   word (34.12 for TCP and DCTCP, 53.24 for the 2-path schemes; 40.12
   and 60.24 before the source counter moved into the flow and the
   addressing into one header). Flows built their connections at launch
   until those were deferred to the start; the same waiting flows then
   kept 137.02 / 144.02 / 270.16 / 266.16 / 268.16 words, and before
   connections kept their controller, views and callbacks as closures
   239.02 / 246.02 / 508.16 / 482.16 / 557.16. *)
let retained_budgets =
  Xmp_workload.Scheme.
    [ (reno, 35.); (dctcp, 35.); (xmp 2, 54.); (lia 2, 54.); (olia 2, 54.) ]

(* Live heap words an idle fabric keeps once built: what a run's set-up
   allocates and holds before the first packet. Queue, wire and
   flight-recorder rings start empty and grow with what they hold, so
   this counts nodes, links, routes, lanes and handlers, not buffers:
   a ring allocated at its bound would add [capacity + 1] words per
   queue (101 at the fabrics' 100 packets, 11 178 on the WAN trunk) and
   17 per link. *)
module Idle = struct
  module Fabric = Xmp_net.Fabric
  module Wan = Xmp_net.Wan

  let live_words fabric =
    let disc () =
      Xmp_net.Queue_disc.create
        ~policy:(Xmp_net.Queue_disc.Threshold_mark 10)
        ~capacity_pkts:100
    in
    Gc.full_major ();
    let before = (Gc.stat ()).Gc.live_words in
    let cluster = Xmp_net.Shard.create ~shards:(Fabric.shards fabric) () in
    ignore (Fabric.create ~cluster ~disc fabric);
    Gc.full_major ();
    let after = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity cluster);
    after - before

  (* websearch.k8's fabric, and wan.2dc's: two k=4 trees over one
     1 Gbps / 40 ms trunk with an 11 177-packet queue *)
  let k8 = Fabric.Fat_tree 8

  let wan =
    let dc = Wan.Fat_tree_dc { k = 4 } in
    Fabric.Bridged
      {
        left = dc;
        right = dc;
        trunks =
          [
            Wan.trunk ~rate:(Xmp_net.Units.gbps 1.)
              ~delay:(Xmp_engine.Time.ms 40) ~queue_pkts:11177
              ~marking_threshold:2223 ();
          ];
      }
end

let test_retained ~built (scheme, ceiling) () =
  let name = Xmp_workload.Scheme.name scheme in
  let words = Retained.words_per_flow ~built scheme in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s words per flow %.2f <= %.0f" name
       (if built then "built" else "retained")
       words ceiling)
    true (words <= ceiling)

(* Ceilings only go down, at the measured values rounded up to a whole
   word (110.61 / 114.61 / 209.75 / 203.75 / 218.75; 115.00 / 120.00 /
   219.16 / 213.16 / 228.16 before the sim's free list kept at most 256
   fired event records, where it had kept one per start event; 139.00 /
   146.00 / 272.16 / 268.16 / 270.16 before the receiver half, the shared
   header and the slimmed connection, controller and coupling
   records). *)
let built_budgets =
  Xmp_workload.Scheme.
    [
      (reno, 111.); (dctcp, 115.); (xmp 2, 210.); (lia 2, 204.); (olia 2, 219.);
    ]

(* Ceilings only go down, at the measured values. With endpoint and tag
   tables pre-sized at 256 and 64 buckets per shard network they kept
   71 275 and 18 239 words, and with every ring also allocated at its
   bound 161 899 and 65 177. *)
let idle_budgets =
  [
    ("k=8 fat tree, 8 shards", Idle.k8, 69_339);
    ("wan.2dc bridge", Idle.wan, 17_755);
  ]

let test_idle (name, fabric, ceiling) () =
  let words = Idle.live_words fabric in
  Alcotest.(check bool)
    (Printf.sprintf "%s: idle live words %d <= %d" name words ceiling)
    true (words <= ceiling)

(* What a completed open-loop flow leaves behind until the next
   barrier, seen through [Weak] pointers after a [Gc.full_major]. One
   XMP-2 flow runs to completion on a k=4 fat tree with a shard per pod,
   its observer filing it with [Open_loop.Finished] as an open-loop run
   does; the test then holds only weak pointers to the flow, its
   senders and its receivers. A flow whose receivers share its pod
   leaves nothing; a flow to another pod leaves its receiver halves,
   still registered on the destination shard, until [Finished.reap]
   closes them at the barrier. *)
module Finished = struct
  module Time = Xmp_engine.Time
  module Shard = Xmp_net.Shard
  module Topology = Xmp_net.Topology
  module Network = Xmp_net.Network
  module Scheme = Xmp_workload.Scheme
  module Flow = Xmp_mptcp.Mptcp_flow
  module Tcp = Xmp_transport.Tcp
  module Filed = Xmp_workload.Open_loop.Finished

  type run = {
    cluster : Shard.t;
    dst_net : Network.t;
    filed : Filed.t;
    completed : bool ref;
    flow : Flow.t Weak.t;
    senders : Tcp.t Weak.t;
    receivers : Tcp.receiver Weak.t;
  }

  let weak_of values =
    let w = Weak.create (Array.length values) in
    Array.iteri (fun i v -> Weak.set w i (Some v)) values;
    w

  (* Not inlined, so no strong pointer to the flow outlives it in the
     caller's frame. *)
  let[@inline never] launch ?(size = 50) ~dst () =
    let disc () =
      Xmp_net.Queue_disc.create
        ~policy:(Xmp_net.Queue_disc.Threshold_mark 10)
        ~capacity_pkts:100
    in
    let cluster = Shard.create ~shards:4 () in
    let topo = Xmp_net.Fat_tree.create ~cluster ~k:4 ~disc () in
    let filed = Filed.create () in
    let completed = ref false in
    let observer =
      {
        Scheme.silent with
        on_complete =
          (fun f ->
            completed := true;
            Filed.add filed f);
      }
    in
    let f =
      Scheme.launch ~net:(Topology.host_net topo 0)
        ~rcv_net:(Topology.host_net topo dst) ~flow:0 ~src:0 ~dst
        ~paths:[ 0; 1 ] ~size_segments:size ~observer
        (Scheme.launcher (Scheme.xmp 2) Scheme.default_overrides)
    in
    let subflows = Flow.subflows f in
    {
      cluster;
      dst_net = Topology.host_net topo dst;
      filed;
      completed;
      flow = weak_of [| f |];
      senders = weak_of subflows;
      receivers = weak_of (Array.map Tcp.receiver subflows);
    }

  (* 50 segments finish in well under 20 ms at 1 Gbps *)
  let complete r =
    Shard.run ~until:(Time.ms 20) r.cluster;
    Alcotest.(check bool) "the flow completed" true !(r.completed);
    Gc.full_major ()

  let live w = List.init (Weak.length w) (Weak.check w)

  let endpoints r = (Network.endpoint_stats r.dst_net).Hashtbl.num_bindings

  (* host 2 shares host 0's pod and shard; host 4 is in the next pod *)
  let same_shard () =
    let r = launch ~dst:2 () in
    complete r;
    Alcotest.(check (list bool)) "flow collected" [ false ] (live r.flow);
    Alcotest.(check (list bool)) "senders collected" [ false; false ]
      (live r.senders);
    Alcotest.(check (list bool)) "receivers collected" [ false; false ]
      (live r.receivers)

  let split_sender () =
    let r = launch ~dst:4 () in
    complete r;
    Alcotest.(check (list bool)) "flow collected" [ false ] (live r.flow);
    Alcotest.(check (list bool)) "senders collected" [ false; false ]
      (live r.senders);
    Alcotest.(check (list bool)) "receivers kept" [ true; true ]
      (live r.receivers);
    Alcotest.(check int) "receivers registered" 2 (endpoints r)

  let split_receiver () =
    let r = launch ~dst:4 () in
    complete r;
    Filed.reap r.filed;
    Gc.full_major ();
    Alcotest.(check (list bool)) "receivers collected" [ false; false ]
      (live r.receivers);
    Alcotest.(check int) "receivers unregistered" 0 (endpoints r)

  (* A zero-size flow completes while its last subflow is being built:
     that subflow's receiver must be filed too, or it stays registered
     on the destination shard for good. *)
  let zero_size () =
    let r = launch ~size:0 ~dst:4 () in
    Alcotest.(check bool) "the flow completed at its start" true
      !(r.completed);
    Alcotest.(check int) "receivers registered" 2 (endpoints r);
    Filed.reap r.filed;
    Gc.full_major ();
    Alcotest.(check int) "receivers unregistered" 0 (endpoints r);
    Alcotest.(check (list bool)) "receivers collected" [ false; false ]
      (live r.receivers)
end

(* Forced minor collections and promotion around a run's set-up and
   teardown. [Array.make] of more than 256 cells with a fill still in
   the minor heap forces a minor collection, which the runtime counts as
   [EV_C_FORCE_MINOR_MAKE_VECT]; the runtime_events ring of this process
   is read around each call. The runs are the four xmpbench workload
   shapes, cut short; the incast.k4 set-up is the benchmark's own (its
   run at horizon 0), which starts 384 plain-TCP connections at once. *)
module Setup_gc = struct
  module Time = Xmp_engine.Time
  module Driver = Xmp_workload.Driver
  module Open_loop = Xmp_workload.Open_loop
  module Wan = Xmp_net.Wan
  module Units = Xmp_net.Units

  let forced = ref 0
  let lost = ref 0

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ counter n ->
        match counter with
        | Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT -> forced := !forced + n
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  let forced_by f =
    let cursor = Lazy.force cursor in
    ignore (Runtime_events.read_poll cursor callbacks None);
    forced := 0;
    lost := 0;
    f ();
    ignore (Runtime_events.read_poll cursor callbacks None);
    Alcotest.(check int) "no runtime event lost" 0 !lost;
    !forced

  let segs_of_mb mb = int_of_float (Float.ceil (mb *. 1e6 /. 1460.))

  let driver pattern horizon () =
    ignore (Driver.run { Driver.default_config with horizon; pattern })

  let incast =
    Driver.Incast
      {
        jobs = 48;
        fanout = 8;
        request_segments = 2;
        response_segments = 45;
        bg_mean_segments = 0.;
        bg_cap_segments = 0.;
        bg_shape = 1.5;
      }

  let bulk =
    Driver.Permutation
      { min_segments = 4 * segs_of_mb 2.; max_segments = 4 * segs_of_mb 16. }

  let web_search =
    Xmp_workload.Flow_size.scaled Xmp_workload.Flow_size.web_search
      (1. /. 32.)

  let websearch horizon () =
    ignore
      (Open_loop.run
         ~config:
           {
             Open_loop.default_config with
             sizes = web_search;
             horizon;
             drain = horizon;
           }
         ())

  let wan horizon () =
    let dc = Wan.Fat_tree_dc { k = 4 } in
    let trunks =
      [
        Wan.trunk ~rate:(Units.gbps 1.) ~delay:(Time.ms 40)
          ~queue_pkts:11177 ~marking_threshold:2223 ();
      ]
    in
    ignore
      (Open_loop.run_wan
         ~config:
           {
             Open_loop.default_config with
             sizes = web_search;
             load = 0.25;
             horizon;
             drain = horizon;
             rto_min = Wan.max_rtt_no_queue_of ~left:dc ~right:dc ~trunks / 2;
             sack = true;
             cross_dc = 0.3;
           }
         ~left:dc ~right:dc ~trunks ())

  let incast_setup = driver incast Time.zero

  let runs =
    [
      ("bulk.k4", driver bulk (Time.ms 20));
      ("incast.k4", driver incast (Time.ms 20));
      ("websearch.k8", websearch (Time.ms 10));
      ("wan.2dc", wan (Time.ms 10));
    ]

  let setup_forces_nothing () =
    incast_setup ();
    Alcotest.(check int) "incast.k4 set-up: forced minor collections" 0
      (forced_by incast_setup)

  let runs_force_nothing () =
    List.iter
      (fun (name, run) ->
        Alcotest.(check int) (name ^ ": forced minor collections") 0
          (forced_by run))
      runs

  (* A k = 12 fat tree has 432 hosts, more than the 256 cells of the
     largest block the minor heap takes, so its host array and the
     open-loop arrival streams over its hosts are built past that size.
     The fabric is built alone (its hosts must keep their index order),
     then set up by both drivers at horizon 0. *)
  let k12 = Xmp_net.Fabric.Fat_tree 12

  let large_fabric_forces_nothing () =
    let disc () =
      Xmp_net.Queue_disc.create
        ~policy:(Xmp_net.Queue_disc.Threshold_mark 10)
        ~capacity_pkts:100
    in
    let cluster = Xmp_net.Shard.create ~shards:1 () in
    let topo = ref None in
    Alcotest.(check int) "k=12 fat tree: forced minor collections" 0
      (forced_by (fun () ->
           topo := Some (Xmp_net.Fat_tree.create ~cluster ~k:12 ~disc ())));
    let n = (Option.get !topo).Xmp_net.Topology.n_hosts in
    Alcotest.(check int) "k=12 fat tree: hosts" 432 n;
    let net = Xmp_net.Shard.net cluster 0 in
    Alcotest.(check (list string))
      "k=12 fat tree: hosts in index order"
      (List.init n (fun i ->
           Printf.sprintf "h%d.%d.%d" (i / 36) (i mod 36 / 6) (i mod 6)))
      (List.init n (fun i -> Xmp_net.Node.name (Xmp_net.Network.node net i)));
    Alcotest.(check int) "k=12 Driver set-up: forced minor collections" 0
      (forced_by (fun () ->
           ignore
             (Driver.run
                {
                  Driver.default_config with
                  fabric = k12;
                  horizon = Time.zero;
                  pattern = bulk;
                })));
    Alcotest.(check int) "k=12 Open_loop set-up: forced minor collections" 0
      (forced_by (fun () ->
           ignore
             (Open_loop.run
                ~config:
                  {
                    Open_loop.default_config with
                    fabric = k12;
                    sizes = web_search;
                    horizon = Time.zero;
                    drain = Time.zero;
                  }
                ())))

  (* Words the next minor collection promotes after one finished
     incast.k4 set-up, which starts from an empty minor heap and, at
     about 90 000 words, fits in it whole. A table in the major heap that
     was written with young values keeps those cells remembered, so what
     they still point to is promoted: with no table released at the end
     of the run that was the whole run, 63 387 words. *)
  let promoted_after_setup () =
    incast_setup ();
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.promoted_words in
    incast_setup ();
    Gc.minor ();
    int_of_float ((Gc.quick_stat ()).Gc.promoted_words -. before)
end

(* Ceiling only goes down: 950–1 000 words measured, depending on the
   process, with 10 % headroom. *)
let promoted_ceiling = 1_100

let test_promoted () =
  let words = Setup_gc.promoted_after_setup () in
  Alcotest.(check bool)
    (Printf.sprintf "incast.k4 set-up: promoted words %d <= %d" words
       promoted_ceiling)
    true
    (words <= promoted_ceiling)

let suite =
  List.map
    (fun b -> Alcotest.test_case b.workload `Slow (test_budget b))
    budgets
  @ List.map
      (fun w ->
        Alcotest.test_case (w ^ " at 2 domains") `Slow (test_two_domains w))
      [ "websearch.k8"; "wan.2dc" ]
  @ List.map
      (fun b ->
        Alcotest.test_case
          ("retained words " ^ Xmp_workload.Scheme.name (fst b))
          `Slow (test_retained ~built:false b))
      retained_budgets
  @ List.map
      (fun ((name, _, _) as b) ->
        Alcotest.test_case ("idle words " ^ name) `Slow (test_idle b))
      idle_budgets
  @ List.map
      (fun b ->
        Alcotest.test_case
          ("built words " ^ Xmp_workload.Scheme.name (fst b))
          `Slow (test_retained ~built:true b))
      built_budgets
  @ [
      Alcotest.test_case "finished words same-shard flow" `Slow
        Finished.same_shard;
      Alcotest.test_case "finished words split flow sender" `Slow
        Finished.split_sender;
      Alcotest.test_case "finished words split flow receiver" `Slow
        Finished.split_receiver;
      Alcotest.test_case "finished words zero-size split flow" `Slow
        Finished.zero_size;
      Alcotest.test_case "forced minors incast.k4 set-up" `Slow
        Setup_gc.setup_forces_nothing;
      Alcotest.test_case "forced minors workload runs" `Slow
        Setup_gc.runs_force_nothing;
      Alcotest.test_case "promoted words incast.k4 set-up" `Slow test_promoted;
      Alcotest.test_case "forced minors k=12 fat tree set-up" `Slow
        Setup_gc.large_fabric_forces_nothing;
    ]
