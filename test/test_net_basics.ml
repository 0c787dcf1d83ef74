module Units = Xmp_net.Units
module Packet = Xmp_net.Packet
module Queue_disc = Xmp_net.Queue_disc

let checkf = Alcotest.(check (float 1e-9))

(* ----- Units ----- *)

let test_rates () =
  Alcotest.(check int) "gbps" 1_000_000_000 (Units.gbps 1.);
  Alcotest.(check int) "mbps" 300_000_000 (Units.mbps 300.);
  checkf "to_gbps" 2.5 (Units.to_gbps (Units.gbps 2.5));
  checkf "bytes per sec" 125_000_000. (Units.bytes_per_sec (Units.gbps 1.))

let test_tx_time () =
  (* 1500 B at 1 Gbps = 12 us exactly *)
  Alcotest.(check int) "1500B @ 1G" 12_000
    (Units.tx_time (Units.gbps 1.) ~bytes:1500);
  (* rounds up, never faster than the rate *)
  Alcotest.(check int) "1B @ 3bps rounds up"
    ((8 * 1_000_000_000 / 3) + 1)
    (Units.tx_time 3 ~bytes:1);
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Units.tx_time: rate must be positive") (fun () ->
      ignore (Units.tx_time 0 ~bytes:1))

(* ----- Packet ----- *)

let test_packet_data () =
  let p =
    Packet.data ~flow:1 ~subflow:2 ~src:3 ~dst:4 ~path:5 ~seq:6
      ~ect:true ~cwr:false ~ts:123
  in
  Alcotest.(check int) "size" Packet.data_wire_bytes (Packet.size p);
  Alcotest.(check bool) "kind" true ((Packet.kind p) = Packet.Data);
  Alcotest.(check bool) "ect" true (Packet.ect p);
  Alcotest.(check bool) "ce starts clear" false (Packet.ce p);
  Alcotest.(check int) "ece 0 on data" 0 (Packet.ece_count p)

let test_packet_ack () =
  let p =
    Packet.ack ~sack:[ (12, 15) ] ~flow:1 ~subflow:0 ~src:4 ~dst:3
      ~path:5 ~seq:9 ~ece_count:3 ~ts:55 ()
  in
  Alcotest.(check int) "ack size" Packet.ack_wire_bytes (Packet.size p);
  Alcotest.(check bool) "acks are not ECT" false (Packet.ect p);
  Alcotest.(check int) "ece count" 3 (Packet.ece_count p);
  Alcotest.(check bool) "sack blocks carried" true ((Packet.sack p) = [ (12, 15) ])

let test_packet_pp () =
  let p =
    Packet.data ~flow:2 ~subflow:0 ~src:1 ~dst:3 ~path:0 ~seq:5
      ~ect:true ~cwr:false ~ts:0
  in
  Packet.set_ce p;
  let s = Format.asprintf "%a" Packet.pp p in
  Alcotest.(check bool) "mentions CE" true
    (String.length s > 0
    && String.contains s 'C'
    && String.contains s 'E')

(* A released record reincarnated by a later acquire must carry none of
   its previous life: no CE, no CWR, no stale SACK blocks, no ECE count.
   The pool is LIFO, so dirtying one record and releasing it makes the
   very next acquire the aliasing candidate. *)
let test_pool_reuse_no_aliasing () =
  let p =
    Packet.ack ~sack:[ (12, 15); (20, 22) ] ~flow:9 ~subflow:1 ~src:4 ~dst:3
      ~path:5 ~seq:9 ~ece_count:3 ~ts:55 ()
  in
  Packet.release p;
  let q =
    Packet.data ~flow:1 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq:0 ~ect:true
      ~cwr:false ~ts:0
  in
  Alcotest.(check bool) "no stale CE" false (Packet.ce q);
  Alcotest.(check bool) "no stale CWR" false (Packet.cwr q);
  Alcotest.(check int) "no stale SACK" 0 (Packet.sack_count q);
  Alcotest.(check int) "no stale ECE" 0 (Packet.ece_count q);
  Alcotest.(check bool) "data kind" true (Packet.kind q = Packet.Data);
  (* same check through the packet words a shard boundary carries *)
  Packet.set_ce q;
  let words = Array.make (Packet.words + 2) 0 in
  Alcotest.(check int) "a data record is 4 words" 4 (Packet.store q words 2);
  Packet.release q;
  let r = Packet.load words 2 in
  Alcotest.(check bool) "words preserve CE" true (Packet.ce r);
  Packet.release r;
  (* every width: data with ECT/CE/CWR, ACKs with 0 to 3 blocks *)
  let fields p =
    Format.asprintf "%a ts=%d ect=%b cwr=%b ece=%d sack=%s" Packet.pp p
      (Packet.ts p) (Packet.ect p) (Packet.cwr p) (Packet.ece_count p)
      (String.concat ","
         (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) (Packet.sack p)))
  in
  let ack blocks =
    Packet.ack ~sack:blocks ~flow:1_000_000 ~subflow:4000 ~src:1_000_001
      ~dst:7 ~path:1023 ~seq:0x7fff_fff0 ~ece_count:(List.length blocks + 2)
      ~ts:(1 lsl 50) ()
  in
  let stream =
    [
      (let d =
         Packet.data ~flow:(1 lsl 29) ~subflow:3 ~src:2 ~dst:1_000_000
           ~path:9 ~seq:77 ~ect:true ~cwr:true ~ts:12_345
       in
       Packet.set_ce d;
       d);
      ack [];
      ack [ (10, 20) ];
      ack [ (10, 20); (30, 40) ];
      ack [ (10, 20); (30, 40); (0x7fff_fffe, 0x7fff_ffff) ];
    ]
  in
  List.iter
    (fun p ->
      let sent = fields p and n = Packet.sack_count p in
      let words = Array.make (Packet.words + 3) (-1) in
      let w = Packet.store p words 3 in
      Alcotest.(check int) (sent ^ ": width 4 + sack_count") (4 + n) w;
      Alcotest.(check int) (sent ^ ": width read back") w
        (Packet.width words 3);
      Packet.release p;
      let r = Packet.load words 3 in
      Alcotest.(check string) "round trip keeps every field" sent (fields r);
      Packet.release r)
    stream;
  (* a record that last carried three blocks, reloaded from a 4-word
     data record, carries none *)
  let three = ack [ (1, 2); (3, 4); (5, 6) ] in
  let d =
    Packet.data ~flow:5 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq:3 ~ect:false
      ~cwr:false ~ts:0
  in
  let words = Array.make 4 0 in
  ignore (Packet.store d words 0);
  Packet.release d;
  Packet.release three;
  let r = Packet.load words 0 in
  Alcotest.(check bool) "the pool handed back the three-block record" true
    (r == three);
  Alcotest.(check int) "reloaded data: no blocks" 0 (Packet.sack_count r);
  Packet.release r;
  let s =
    Packet.ack ~flow:2 ~subflow:0 ~src:1 ~dst:0 ~path:0 ~seq:1 ~ece_count:0
      ~ts:0 ()
  in
  Alcotest.(check bool) "reused after load: clean" false
    (Packet.ce s || Packet.cwr s || Packet.sack_count s > 0);
  Packet.release s

(* Draining the free list grows the pool on demand and releases feed it
   back: created stabilizes while free tracks the live population. *)
let test_pool_exhaustion_growth () =
  let created0 = Packet.pool_created () in
  let burst = Packet.pool_free () + 64 in
  let live =
    List.init burst (fun i ->
        Packet.data ~flow:1 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq:i
          ~ect:false ~cwr:false ~ts:0)
  in
  Alcotest.(check bool) "pool grew under exhaustion" true
    (Packet.pool_created () > created0);
  Alcotest.(check int) "free list drained" 0 (Packet.pool_free ());
  let created_peak = Packet.pool_created () in
  List.iter Packet.release live;
  Alcotest.(check bool) "releases refill the free list" true
    (Packet.pool_free () >= burst);
  let again =
    List.init burst (fun i ->
        Packet.data ~flow:1 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq:i
          ~ect:false ~cwr:false ~ts:0)
  in
  Alcotest.(check int) "reacquire creates nothing new" created_peak
    (Packet.pool_created ());
  List.iter Packet.release again;
  Alcotest.check_raises "double release detected"
    (Invalid_argument "Packet.release: packet already released")
    (fun () -> Packet.release (List.hd again))

(* ----- Queue_disc ----- *)

let mk_data ?(ect = true) seq =
  Packet.data ~flow:0 ~subflow:0 ~src:0 ~dst:1 ~path:0 ~seq ~ect
    ~cwr:false ~ts:0

let test_droptail_overflow () =
  let d = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:3 in
  Alcotest.(check bool) "1" true (Queue_disc.enqueue d (mk_data 1));
  Alcotest.(check bool) "2" true (Queue_disc.enqueue d (mk_data 2));
  Alcotest.(check bool) "3" true (Queue_disc.enqueue d (mk_data 3));
  Alcotest.(check bool) "overflow dropped" false
    (Queue_disc.enqueue d (mk_data 4));
  Alcotest.(check int) "len" 3 (Queue_disc.length d);
  Alcotest.(check int) "dropped" 1 (Queue_disc.dropped d);
  Alcotest.(check int) "enqueued" 3 (Queue_disc.enqueued d);
  Alcotest.(check int) "never marks" 0 (Queue_disc.marked d)

let test_fifo_order () =
  let d = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:10 in
  List.iter (fun i -> ignore (Queue_disc.enqueue d (mk_data i))) [ 1; 2; 3 ];
  let pop () =
    match Queue_disc.dequeue d with
    | Some p -> (Packet.seq p)
    | None -> Alcotest.fail "empty"
  in
  Alcotest.(check int) "fifo 1" 1 (pop ());
  Alcotest.(check int) "fifo 2" 2 (pop ());
  Alcotest.(check int) "fifo 3" 3 (pop ());
  Alcotest.(check bool) "then empty" true (Queue_disc.dequeue d = None)

let test_threshold_marking () =
  let k = 3 in
  let d =
    Queue_disc.create ~policy:(Queue_disc.Threshold_mark k) ~capacity_pkts:10
  in
  (* queue builds: packets enqueued while length > k get marked *)
  let marked = ref [] in
  for i = 1 to 7 do
    let p = mk_data i in
    ignore (Queue_disc.enqueue d p);
    if (Packet.ce p) then marked := i :: !marked
  done;
  (* arrivals 1..4 saw length 0..3 (not > 3); arrivals 5..7 saw 4..6 *)
  Alcotest.(check (list int)) "marks start once length exceeds K" [ 5; 6; 7 ]
    (List.rev !marked);
  Alcotest.(check int) "marked counter" 3 (Queue_disc.marked d)

let test_threshold_nonect_not_marked () =
  let d =
    Queue_disc.create ~policy:(Queue_disc.Threshold_mark 0) ~capacity_pkts:10
  in
  ignore (Queue_disc.enqueue d (mk_data 1));
  let p = mk_data ~ect:false 2 in
  ignore (Queue_disc.enqueue d p);
  Alcotest.(check bool) "non-ECT never marked" false (Packet.ce p);
  let p2 = mk_data 3 in
  ignore (Queue_disc.enqueue d p2);
  Alcotest.(check bool) "ECT marked" true (Packet.ce p2)

let test_clear () =
  let d = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:10 in
  List.iter (fun i -> ignore (Queue_disc.enqueue d (mk_data i))) [ 1; 2 ];
  Alcotest.(check int) "clear count" 2 (Queue_disc.clear d);
  Alcotest.(check int) "empty" 0 (Queue_disc.length d);
  Alcotest.(check int) "cleared count as drops" 2 (Queue_disc.dropped d)

let test_max_length () =
  let d = Queue_disc.create ~policy:Queue_disc.Droptail ~capacity_pkts:10 in
  List.iter (fun i -> ignore (Queue_disc.enqueue d (mk_data i))) [ 1; 2; 3 ];
  ignore (Queue_disc.dequeue d);
  Alcotest.(check int) "max length seen" 3 (Queue_disc.max_length_seen d)

let prop_threshold_len_bounded =
  QCheck.Test.make ~count:100
    ~name:"queue length never exceeds capacity under random ops"
    QCheck.(list (int_bound 1))
    (fun ops ->
      let d =
        Queue_disc.create ~policy:(Queue_disc.Threshold_mark 3)
          ~capacity_pkts:5
      in
      List.for_all
        (fun op ->
          if op = 0 then ignore (Queue_disc.enqueue d (mk_data 0))
          else ignore (Queue_disc.dequeue d);
          Queue_disc.length d <= 5 && Queue_disc.length d >= 0)
        ops)

(* A list model of the queue discipline: FIFO contents as (seq, CE)
   pairs and the counters, updated by the same rules. The ring under
   test starts empty and grows (8, 16, 32, ...) up to the capacity, so
   random sequences cross growth, wrap-around, drop at capacity,
   blackout and [clear] at every fill level. *)
module Model = struct
  type t = {
    policy : Queue_disc.policy;
    capacity : int;
    mutable q : (int * bool) list;  (* head first *)
    mutable enqueued : int;
    mutable dropped : int;
    mutable marked : int;
    mutable max_len : int;
    mutable blackout : bool;
  }

  let create policy capacity =
    {
      policy;
      capacity;
      q = [];
      enqueued = 0;
      dropped = 0;
      marked = 0;
      max_len = 0;
      blackout = false;
    }

  let len m = List.length m.q

  (* [Some ce] when accepted with that CE bit, [None] when dropped *)
  let enqueue m seq ~ect =
    let accept ce =
      if ce then m.marked <- m.marked + 1;
      m.q <- m.q @ [ (seq, ce) ];
      m.enqueued <- m.enqueued + 1;
      m.max_len <- Int.max m.max_len (len m);
      Some ce
    in
    if m.blackout || len m >= m.capacity then begin
      m.dropped <- m.dropped + 1;
      None
    end
    else
      match m.policy with
      | Queue_disc.Droptail -> accept false
      | Queue_disc.Threshold_mark k -> accept (ect && len m > k)

  let take m =
    match m.q with
    | [] -> None
    | x :: rest ->
      m.q <- rest;
      Some x

  let clear m =
    let n = len m in
    m.q <- [];
    m.dropped <- m.dropped + n;
    n
end

let prop_queue_matches_model =
  QCheck.Test.make ~count:300
    ~name:"queue matches a list model across growth, wrap and clear"
    QCheck.(
      quad bool (int_range 1 40) (int_bound 20)
        (list_of_size Gen.(0 -- 400) (int_bound 39)))
    (fun (marking, capacity, k, ops) ->
      let policy =
        if marking then Queue_disc.Threshold_mark k else Queue_disc.Droptail
      in
      let d = Queue_disc.create ~policy ~capacity_pkts:capacity in
      let m = Model.create policy capacity in
      let same () =
        Queue_disc.length d = Model.len m
        && Queue_disc.enqueued d = m.enqueued
        && Queue_disc.dropped d = m.dropped
        && Queue_disc.marked d = m.marked
        && Queue_disc.max_length_seen d = m.max_len
      in
      List.for_all
        (fun op ->
          let seq = m.enqueued + m.dropped in
          let ok =
            if op < 25 then begin
              let ect = op < 22 in
              let p = mk_data ~ect seq in
              let accepted = Queue_disc.enqueue d p in
              (* a dropped packet went back to the pool: read nothing *)
              match Model.enqueue m seq ~ect with
              | Some ce -> accepted && Packet.ce p = ce
              | None -> not accepted
            end
            else if op < 36 then
              match (Queue_disc.dequeue d, Model.take m) with
              | None, None -> true
              | Some p, Some (s, ce) ->
                let ok = Packet.seq p = s && Packet.ce p = ce in
                Packet.release p;
                ok
              | _ -> false
            else if op < 38 then begin
              m.blackout <- not m.blackout;
              Queue_disc.set_blackout d m.blackout;
              true
            end
            else Queue_disc.clear d = Model.clear m
          in
          ok && same ())
        ops)

let suite =
  [
    Alcotest.test_case "rate units" `Quick test_rates;
    Alcotest.test_case "tx time" `Quick test_tx_time;
    Alcotest.test_case "data packet" `Quick test_packet_data;
    Alcotest.test_case "ack packet" `Quick test_packet_ack;
    Alcotest.test_case "packet printing" `Quick test_packet_pp;
    Alcotest.test_case "pool reuse leaks no state" `Quick
      test_pool_reuse_no_aliasing;
    Alcotest.test_case "pool exhaustion growth" `Quick
      test_pool_exhaustion_growth;
    Alcotest.test_case "droptail overflow" `Quick test_droptail_overflow;
    Alcotest.test_case "FIFO order" `Quick test_fifo_order;
    Alcotest.test_case "threshold marking" `Quick test_threshold_marking;
    Alcotest.test_case "non-ECT never marked" `Quick
      test_threshold_nonect_not_marked;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "max length stat" `Quick test_max_length;
    QCheck_alcotest.to_alcotest prop_threshold_len_bounded;
    QCheck_alcotest.to_alcotest prop_queue_matches_model;
  ]
