module Time = Xmp_engine.Time

type locality = Inner_rack | Inter_rack | Inter_pod | Inter_dc

let locality_name = function
  | Inner_rack -> "Inner-Rack"
  | Inter_rack -> "Inter-Rack"
  | Inter_pod -> "Inter-Pod"
  | Inter_dc -> "Inter-DC"

let locality_index = function
  | Inner_rack -> 0
  | Inter_rack -> 1
  | Inter_pod -> 2
  | Inter_dc -> 3

let layers =
  [ "wan"; "border"; "core"; "aggregation"; "rack"; "leaf"; "spine" ]

type shape = {
  hosts : int;
  switches : int;
  classify : int -> int -> locality;
  paths : locality -> int;
  one_way : locality -> Time.t;
  exit_delay : Time.t;
}

type t = {
  cluster : Shard.t;
  n_hosts : int;
  shard_of_host : int -> int;
  locality : src:int -> dst:int -> locality;
  n_paths : src:int -> dst:int -> int;
  zero_load_rtt : src:int -> dst:int -> Time.t;
  dc_ranges : (int * int) array;
}

let of_shape ~cluster ~shard_of_host s =
  {
    cluster;
    n_hosts = s.hosts;
    shard_of_host;
    locality = (fun ~src ~dst -> s.classify src dst);
    n_paths = (fun ~src ~dst -> s.paths (s.classify src dst));
    zero_load_rtt =
      (fun ~src ~dst -> Time.mul (s.one_way (s.classify src dst)) 2);
    dc_ranges = [| (0, s.hosts) |];
  }

let host_net t i = Shard.net t.cluster (t.shard_of_host i)

let dc_of_host t i =
  if i < 0 || i >= t.n_hosts then invalid_arg "Topology.dc_of_host";
  let d = ref 0 in
  Array.iteri (fun j (base, _) -> if i >= base then d := j) t.dc_ranges;
  !d
