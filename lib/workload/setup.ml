module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Queue_disc = Xmp_net.Queue_disc
module Shard = Xmp_net.Shard
module Topology = Xmp_net.Topology
module Injector = Xmp_faults.Injector
module Mptcp_flow = Xmp_mptcp.Mptcp_flow

type t = {
  cluster : Shard.t;
  topo : Topology.t;
  overrides : Scheme.transport_overrides;
  injectors : Injector.t array;
  schemes : (Scheme.t * Scheme.launcher) array;
}

(* Every push is in the order runs always made them: the fabric, then
   each shard's injector in shard order (spec order within a shard);
   traffic comes after. *)
let create ~seed ~telemetry ~shards ~queue_pkts ~marking_threshold ~rto_min
    ~beta ~sack ~faults ~schemes fabric =
  let cluster =
    Shard.create ~config:{ Sim.default_config with seed; telemetry } ~shards ()
  in
  (* a lone scheme tuned for a specific marking threshold K (e.g.
     "XMP-2:k=20") gets the fabric configured to match; a mix keeps the
     fabric-wide value *)
  let marking =
    match schemes with
    | [| s |] -> Option.value (Scheme.marking_threshold s) ~default:marking_threshold
    | _ -> marking_threshold
  in
  let policy = Queue_disc.Threshold_mark marking in
  let disc () = Queue_disc.create ~policy ~capacity_pkts:queue_pkts in
  let topo = Xmp_net.Fabric.create ~cluster ~disc fabric in
  let injectors = Injector.install_cluster cluster faults in
  let overrides = { Scheme.default_overrides with rto_min; beta; sack } in
  let schemes = Array.map (fun s -> (s, Scheme.launcher s overrides)) schemes in
  { cluster; topo; overrides; injectors; schemes }

let close t = Shard.close t.cluster

let scheme t ~src = t.schemes.(src mod Array.length t.schemes)

(* A flow's record: all but how it ended follows from its handle. *)
let record t metrics f ~finished ~goodput_bps ~truncated =
  let src = Mptcp_flow.src f and dst = Mptcp_flow.dst f in
  Metrics.record_flow metrics
    {
      Metrics.flow = Mptcp_flow.flow_id f;
      scheme = fst (scheme t ~src);
      src;
      dst;
      locality = t.topo.locality ~src ~dst;
      size_segments = Option.get (Mptcp_flow.size_segments f);
      started = Mptcp_flow.started_at f;
      finished;
      goodput_bps;
      truncated;
    }

let finish t metrics running f =
  Hashtbl.remove running (Mptcp_flow.flow_id f);
  let shard = t.topo.shard_of_host (Mptcp_flow.src f) in
  record t metrics f
    ~finished:(Sim.now (Shard.sim t.cluster shard))
    ~goodput_bps:(Mptcp_flow.goodput_bps f) ~truncated:false

(* sorted-iteration idiom: record in flow-id order, not hash order, so
   metric aggregation (float sums included) never depends on the hash
   function or table history *)
let sweep t metrics running ~until ~min_elapsed =
  Hashtbl.fold (fun flow f acc -> (flow, f) :: acc) running []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, f) ->
         if Time.sub until (Mptcp_flow.started_at f) >= min_elapsed then
           record t metrics f ~finished:until
             ~goodput_bps:(Mptcp_flow.goodput_bps_until f until)
             ~truncated:true)
