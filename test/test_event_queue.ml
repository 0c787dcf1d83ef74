module Q = Xmp_engine.Event_queue

let test_empty () =
  let q = Q.create () in
  Alcotest.(check bool) "empty" true (Q.is_empty q);
  Alcotest.(check int) "length" 0 (Q.length q);
  Alcotest.(check int) "no top time" Xmp_engine.Time.infinity (Q.top_time q);
  Alcotest.(check int) "no top seq" max_int (Q.top_seq q);
  Alcotest.check_raises "pop of an empty heap"
    (Invalid_argument "Event_queue.pop_payload: empty") (fun () ->
      ignore (Q.pop_payload q))

let test_ordering () =
  let q = Q.create () in
  Q.add q ~time:30 ~seq:0 "c";
  Q.add q ~time:10 ~seq:1 "a";
  Q.add q ~time:20 ~seq:2 "b";
  Alcotest.(check string) "first" "a" (Q.pop_payload q);
  Alcotest.(check string) "second" "b" (Q.pop_payload q);
  Alcotest.(check string) "third" "c" (Q.pop_payload q)

let test_fifo_ties () =
  let q = Q.create () in
  for i = 0 to 9 do
    Q.add q ~time:5 ~seq:i i
  done;
  (* payload i went in with seq i *)
  for i = 0 to 9 do
    Alcotest.(check int) "seq order" i (Q.pop_payload q)
  done;
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_growth () =
  let q = Q.create () in
  let n = 10_000 in
  for i = n downto 1 do
    Q.add q ~time:i ~seq:(n - i) i
  done;
  Alcotest.(check int) "length" n (Q.length q);
  let prev = ref min_int in
  for _ = 1 to n do
    let t = Q.top_time q in
    Alcotest.(check int) "payload is its time" t (Q.pop_payload q);
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_peek () =
  let q = Q.create () in
  Q.add q ~time:42 ~seq:0 ();
  Alcotest.(check int) "peek" 42 (Q.top_time q);
  Alcotest.(check int) "peek does not pop" 1 (Q.length q)

let test_clear () =
  let q = Q.create () in
  Q.add q ~time:1 ~seq:0 ();
  Q.add q ~time:2 ~seq:1 ();
  Q.clear q;
  Alcotest.(check bool) "cleared" true (Q.is_empty q);
  Q.add q ~time:3 ~seq:2 ();
  Alcotest.(check int) "usable after clear" 3 (Q.top_time q)

(* ----- lazy-deletion / heap-hygiene ----- *)

type cell = { value : int; mutable alive : bool }

let test_cancel_heavy_bounded () =
  (* N adds, N-1 cancels, repeated: without compaction the heap holds
     every dead entry until its fire time (O(total cancels)); with
     lazy deletion it must stay O(live). *)
  let q = Q.create ~live:(fun c -> c.alive) () in
  let seq = ref 0 in
  let rounds = 50 and n = 200 in
  let max_len = ref 0 in
  for r = 0 to rounds - 1 do
    let cells =
      List.init n (fun i ->
          let c = { value = (r * n) + i; alive = true } in
          Q.add q ~time:(1_000_000 + c.value) ~seq:!seq c;
          incr seq;
          c)
    in
    List.iteri
      (fun i c ->
        if i < n - 1 then begin
          c.alive <- false;
          Q.note_dead q
        end)
      cells;
    if Q.length q > !max_len then max_len := Q.length q
  done;
  let live = rounds in
  Alcotest.(check bool)
    (Printf.sprintf "length %d bounded by O(live=%d)" (Q.length q) live)
    true
    (Q.length q <= (2 * live) + n);
  Alcotest.(check bool) "compactions happened" true (Q.rebuilds q > 0);
  Alcotest.(check bool)
    "dead entries bounded after compaction" true
    (Q.dead_count q <= (Q.length q / 2) + 1)

let test_cancel_pop_order_vs_reference () =
  (* Interleaved adds and cancels, driven by a seeded PRNG: the live
     survivors must pop in exactly the order a naive sorted list gives. *)
  let rng = Random.State.make [| 0xBEEF |] in
  let q = Q.create ~live:(fun c -> c.alive) () in
  let reference = ref [] in
  let pending = ref [] in
  for seq = 0 to 2_000 - 1 do
    let time = Random.State.int rng 500 in
    let c = { value = seq; alive = true } in
    Q.add q ~time ~seq c;
    reference := (time, seq, c) :: !reference;
    pending := c :: !pending;
    (* cancel a random earlier survivor about half the time *)
    if Random.State.bool rng then begin
      let candidates = List.filter (fun c -> c.alive) !pending in
      match candidates with
      | [] -> ()
      | _ ->
        let victim =
          List.nth candidates (Random.State.int rng (List.length candidates))
        in
        victim.alive <- false;
        Q.note_dead q
    end
  done;
  let expected =
    List.sort compare
      (List.filter_map
         (fun (t, s, c) -> if c.alive then Some (t, s) else None)
         !reference)
  in
  (* a cell's value is its seq *)
  let rec drain acc =
    if Q.is_empty q then List.rev acc
    else
      let t = Q.top_time q in
      let c = Q.pop_payload q in
      drain (if c.alive then (t, c.value) :: acc else acc)
  in
  let popped = drain [] in
  Alcotest.(check bool)
    (Printf.sprintf "pop order matches reference (%d live survivors)"
       (List.length expected))
    true (popped = expected)

(* End-to-end heap hygiene: a real TCP transfer reschedules its RTO
   watchdog and delayed-ACK timers continuously; the superseded timers
   are cancelled, and lazy deletion must keep the pending-event count at
   the scale of packets in flight — not of total reschedules. *)
let test_tcp_transfer_pending_bounded () =
  let module Sim = Xmp_engine.Sim in
  let module Time = Xmp_engine.Time in
  let module Net = Xmp_net in
  let module Tcp = Xmp_transport.Tcp in
  let module Testbed = Xmp_net.Testbed in
  let sim = Sim.create ~config:{ Sim.default_config with seed = 11 } () in
  let net = Net.Network.create sim in
  let disc () =
    Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:100
  in
  let tb =
    Testbed.create ~net ~n_left:1 ~n_right:1
      ~bottlenecks:
        [ { Testbed.rate = Net.Units.mbps 100.; delay = Time.us 50; disc } ]
      ~access_delay:(Time.us 10) ()
  in
  let conn =
    Tcp.create ~net ~flow:1 ~subflow:0 ~src:(Testbed.left_id tb 0)
      ~dst:(Testbed.right_id tb 0) ~path:0
      ~cc:(fun view -> Xmp_transport.Reno.make view)
      ~source:(Tcp.Limited (ref 5_000))
      ()
  in
  Sim.run ~until:(Time.sec 10.) sim;
  Alcotest.(check bool) "transfer completed" true (Tcp.is_complete conn);
  let st = Sim.stats sim in
  (* in-flight data is capped by the 100-packet bottleneck queue; every
     pending event is tied to a packet in flight or a live timer, so the
     peak must sit at O(window), far below the 5000 segments moved *)
  Alcotest.(check bool)
    (Printf.sprintf "heap peak %d is O(live timers), not O(reschedules)"
       st.Sim.heap_peak)
    true (st.Sim.heap_peak < 600);
  Alcotest.(check int) "no events left pending" 0 (Sim.pending sim)

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap pops in (time, seq) order"
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Q.create () in
      List.iteri (fun i t -> Q.add q ~time:t ~seq:i i) times;
      let rec drain acc =
        if Q.is_empty q then List.rev acc
        else
          let t = Q.top_time q in
          drain ((t, Q.pop_payload q) :: acc)
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted && List.length popped = List.length times)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on equal times" `Quick test_fifo_ties;
    Alcotest.test_case "growth to 10k" `Quick test_growth;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "cancel-heavy workload stays O(live)" `Quick
      test_cancel_heavy_bounded;
    Alcotest.test_case "cancellation preserves pop order" `Quick
      test_cancel_pop_order_vs_reference;
    Alcotest.test_case "TCP transfer keeps pending events bounded" `Quick
      test_tcp_transfer_pending_bounded;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
  ]
