(* One topology handle, any placement: every fabric builds into a
   [Topology.t], and the handle a description yields does not depend on
   how many shards it was placed on. *)

module Time = Xmp_engine.Time
module Net = Xmp_net
module Topology = Xmp_net.Topology

let disc () =
  Net.Queue_disc.create ~policy:Net.Queue_disc.Droptail ~capacity_pkts:100

(* [a] and [b] must agree on every field traffic generators read. *)
let check_same_handle ~what (a : Topology.t) (b : Topology.t) =
  Alcotest.(check int) (what ^ ": n_hosts") a.n_hosts b.n_hosts;
  Alcotest.(check (array (pair int int)))
    (what ^ ": dc_ranges") a.dc_ranges b.dc_ranges;
  for src = 0 to a.n_hosts - 1 do
    for dst = 0 to a.n_hosts - 1 do
      let pair = Printf.sprintf "%s: %d->%d" what src dst in
      Alcotest.(check string) (pair ^ " locality")
        (Topology.locality_name (a.locality ~src ~dst))
        (Topology.locality_name (b.locality ~src ~dst));
      Alcotest.(check int) (pair ^ " n_paths") (a.n_paths ~src ~dst)
        (b.n_paths ~src ~dst);
      Alcotest.(check int) (pair ^ " zero_load_rtt")
        (a.zero_load_rtt ~src ~dst) (b.zero_load_rtt ~src ~dst)
    done
  done

(* [fabric] on one shard and on its own shard count *)
let build fabric =
  let on shards = Net.Fabric.create ~cluster:(Net.Shard.create ~shards ()) ~disc fabric in
  (on 1, on (Net.Fabric.shards fabric))

let test_fat_tree_any_placement () =
  List.iter
    (fun k ->
      let flat, sharded = build (Net.Fabric.Fat_tree k) in
      check_same_handle ~what:(Printf.sprintf "k=%d" k) flat sharded)
    [ 2; 4; 6 ]

let test_wan_any_placement () =
  let flat, sharded =
    build
      (Bridged
         {
           left = Net.Wan.Fat_tree_dc { k = 4 };
           right = Net.Wan.Leaf_spine_dc { leaves = 3; spines = 2; hosts_per_leaf = 2 };
           trunks = [ Net.Wan.trunk ~delay:(Time.ms 5) () ];
         })
  in
  Alcotest.(check (array (pair int int))) "two DCs" [| (0, 16); (16, 6) |]
    flat.dc_ranges;
  check_same_handle ~what:"ft:4 + ls:3,2,2" flat sharded

let test_dc_of_host_bounds () =
  let topo, _ = build (Net.Fabric.Fat_tree 4) in
  Alcotest.(check int) "last host" 0 (Topology.dc_of_host topo 15);
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "host %d" i)
        (Invalid_argument "Topology.dc_of_host")
        (fun () -> ignore (Topology.dc_of_host topo i)))
    [ -1; topo.n_hosts ]

let suite =
  [
    Alcotest.test_case "fat tree: one shard and k shards, same handle" `Quick
      test_fat_tree_any_placement;
    Alcotest.test_case "wan: one shard and two shards, same handle" `Quick
      test_wan_any_placement;
    Alcotest.test_case "dc_of_host rejects out-of-range hosts" `Quick
      test_dc_of_host_bounds;
  ]
