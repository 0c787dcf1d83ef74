module Time = Xmp_engine.Time
module Distribution = Xmp_stats.Distribution
module Topology = Xmp_net.Topology

type flow_record = {
  flow : int;
  scheme : Scheme.t;
  src : int;
  dst : int;
  locality : Topology.locality;
  size_segments : int;
  started : Time.t;
  finished : Time.t;
  goodput_bps : float;
  truncated : bool;
}

type scheme_sum = { mutable s_sum : float; mutable s_n : int }

(* FCT-slowdown size buckets, by flow size in bytes (1460 B segments).
   The last bucket is open-ended. *)
let fct_bucket_bounds = [| 10e3; 100e3; 1e6; 10e6; Float.infinity |]
let fct_bucket_labels = [| "0-10KB"; "10KB-100KB"; "100KB-1MB"; "1MB-10MB"; ">10MB" |]
let n_fct_buckets = Array.length fct_bucket_bounds

type t = {
  keep_flows : bool;
  rtt_subsample : int;
  mutable flows : flow_record list; (* reverse chronological; only when keep_flows *)
  mutable n_flows : int;
  mutable n_truncated : int;
  (* streaming aggregates, maintained on every record_flow *)
  mutable goodput_sum : float;
  scheme_sums : (Scheme.t, scheme_sum) Hashtbl.t;
  mutable scheme_order : Scheme.t list; (* reverse insertion order *)
  goodput_all : Distribution.t;
  goodputs : Distribution.t array;  (* by Topology.locality_index *)
  rtts : Distribution.t array;  (* likewise *)
  mutable rtt_counter : int;
  fanout_jobs : (int, Distribution.t) Hashtbl.t;
  mutable fanout_order : int list;
  slowdown_all : Distribution.t;
  slowdown_buckets : Distribution.t array;
}

let by_locality () = Array.init 4 (fun _ -> Distribution.create ())

let create ?(keep_flows = false) ~rtt_subsample () =
  if rtt_subsample < 1 then invalid_arg "Metrics.create";
  {
    keep_flows;
    rtt_subsample;
    flows = [];
    n_flows = 0;
    n_truncated = 0;
    goodput_sum = 0.;
    scheme_sums = Hashtbl.create 7;
    scheme_order = [];
    goodput_all = Distribution.create ();
    goodputs = by_locality ();
    rtts = by_locality ();
    rtt_counter = 0;
    fanout_jobs = Hashtbl.create 7;
    fanout_order = [];
    slowdown_all = Distribution.create ();
    slowdown_buckets = Array.init n_fct_buckets (fun _ -> Distribution.create ());
  }

let scheme_sum t scheme =
  match Hashtbl.find_opt t.scheme_sums scheme with
  | Some s -> s
  | None ->
    let s = { s_sum = 0.; s_n = 0 } in
    Hashtbl.replace t.scheme_sums scheme s;
    t.scheme_order <- scheme :: t.scheme_order;
    s

let record_flow t r =
  t.n_flows <- t.n_flows + 1;
  if r.truncated then t.n_truncated <- t.n_truncated + 1;
  t.goodput_sum <- t.goodput_sum +. r.goodput_bps;
  let s = scheme_sum t r.scheme in
  s.s_sum <- s.s_sum +. r.goodput_bps;
  s.s_n <- s.s_n + 1;
  Distribution.add t.goodput_all r.goodput_bps;
  Distribution.add t.goodputs.(Topology.locality_index r.locality) r.goodput_bps;
  if t.keep_flows then t.flows <- r :: t.flows

let record_rtt t ~locality rtt =
  t.rtt_counter <- t.rtt_counter + 1;
  if t.rtt_counter mod t.rtt_subsample = 0 then
    Distribution.add t.rtts.(Topology.locality_index locality) (Time.to_ms rtt)

let fanout_dist t fanout =
  match Hashtbl.find_opt t.fanout_jobs fanout with
  | Some dist -> dist
  | None ->
    let dist = Distribution.create () in
    Hashtbl.replace t.fanout_jobs fanout dist;
    t.fanout_order <- fanout :: t.fanout_order;
    dist

let record_job t ~fanout d = Distribution.add (fanout_dist t fanout) (Time.to_ms d)

let fct_bucket_of_segments size_segments =
  let bytes = float_of_int size_segments *. 1460. in
  let i = ref 0 in
  while bytes > fct_bucket_bounds.(!i) do
    incr i
  done;
  !i

let record_fct t ~size_segments ~fct ~ideal =
  let ideal_s = Time.to_float_s ideal in
  if ideal_s <= 0. then invalid_arg "Metrics.record_fct: ideal must be positive";
  let slowdown = Time.to_float_s fct /. ideal_s in
  Distribution.add t.slowdown_all slowdown;
  Distribution.add t.slowdown_buckets.(fct_bucket_of_segments size_segments) slowdown

let completed_flows t =
  if not t.keep_flows then
    invalid_arg
      "Metrics.completed_flows: per-flow records not kept (create with \
       ~keep_flows:true)";
  List.rev t.flows

let keeps_flows t = t.keep_flows
let n_completed_flows t = t.n_flows
let n_truncated_flows t = t.n_truncated

let mean_goodput_bps t =
  if t.n_flows = 0 then 0. else t.goodput_sum /. float_of_int t.n_flows

let mean_goodput_bps_of_scheme t scheme =
  match Hashtbl.find_opt t.scheme_sums scheme with
  | None -> 0.
  | Some s -> if s.s_n = 0 then 0. else s.s_sum /. float_of_int s.s_n

let goodputs t = t.goodput_all

(* most-distant first; empty classes are filtered below, so runs inside
   one tree never show the Inter-DC row *)
let localities =
  [ Topology.Inter_dc; Topology.Inter_pod; Topology.Inter_rack;
    Topology.Inner_rack ]

let non_empty by_locality =
  List.filter_map
    (fun loc ->
      let d = by_locality.(Topology.locality_index loc) in
      if Distribution.is_empty d then None else Some (loc, d))
    localities

let goodputs_by_locality t = non_empty t.goodputs
let rtts_by_locality t = non_empty t.rtts

let job_times_by_fanout t =
  let fanouts = List.sort_uniq Int.compare t.fanout_order in
  List.map (fun f -> (f, Hashtbl.find t.fanout_jobs f)) fanouts

let fct_slowdowns t =
  let buckets =
    List.filter_map
      (fun i ->
        let d = t.slowdown_buckets.(i) in
        if Distribution.is_empty d then None
        else Some (fct_bucket_labels.(i), d))
      (List.init n_fct_buckets Fun.id)
  in
  if Distribution.is_empty t.slowdown_all then buckets
  else buckets @ [ ("all", t.slowdown_all) ]

let fct_summary_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "bucket,samples,mean,p50,p90,p99,max\n";
  List.iter
    (fun (label, d) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%.6g,%.6g,%.6g,%.6g,%.6g\n" label
           (Distribution.count d) (Distribution.mean d)
           (Distribution.percentile d 50.)
           (Distribution.percentile d 90.)
           (Distribution.percentile d 99.)
           (Distribution.max d)))
    (fct_slowdowns t);
  Buffer.contents buf

let fct_cdf_csv ?(points = 100) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "bucket,slowdown,cum_prob\n";
  List.iter
    (fun (label, d) ->
      List.iter
        (fun (x, p) ->
          Buffer.add_string buf (Printf.sprintf "%s,%.6g,%.6g\n" label x p))
        (Distribution.cdf_points d points))
    (fct_slowdowns t);
  Buffer.contents buf

(* Merge [src] into [into]. Used to combine per-pod collectors after a
   sharded run; calling it in pod-index order keeps every aggregate
   deterministic (distribution contents arrive sorted-per-pod in pod
   order, float sums accumulate in pod order). *)
let merge_dist ~into src = Array.iter (Distribution.add into) (Distribution.values src)

let merge_dists ~into src = Array.iteri (fun i d -> merge_dist ~into:into.(i) d) src

(* Each job is filed once, under its fanout; a single fanout's
   distribution is the aggregate itself. *)
let job_times_ms t =
  match job_times_by_fanout t with
  | [ (_, d) ] -> d
  | by_fanout ->
    let all = Distribution.create () in
    List.iter (fun (_, d) -> merge_dist ~into:all d) by_fanout;
    all

let jobs_over_ms t threshold = Distribution.fraction_above (job_times_ms t) threshold

let merge ~into src =
  into.n_flows <- into.n_flows + src.n_flows;
  into.n_truncated <- into.n_truncated + src.n_truncated;
  into.goodput_sum <- into.goodput_sum +. src.goodput_sum;
  if into.keep_flows && src.keep_flows then
    into.flows <- src.flows @ into.flows;
  List.iter
    (fun scheme ->
      let s = Hashtbl.find src.scheme_sums scheme in
      let d = scheme_sum into scheme in
      d.s_sum <- d.s_sum +. s.s_sum;
      d.s_n <- d.s_n + s.s_n)
    (List.rev src.scheme_order);
  merge_dist ~into:into.goodput_all src.goodput_all;
  merge_dists ~into:into.goodputs src.goodputs;
  merge_dists ~into:into.rtts src.rtts;
  into.rtt_counter <- into.rtt_counter + src.rtt_counter;
  List.iter
    (fun f ->
      merge_dist ~into:(fanout_dist into f) (Hashtbl.find src.fanout_jobs f))
    (List.rev src.fanout_order);
  merge_dist ~into:into.slowdown_all src.slowdown_all;
  merge_dists ~into:into.slowdown_buckets src.slowdown_buckets

let utilization_by_layer ~net ~duration =
  List.filter_map
    (fun layer ->
      let links = Xmp_net.Network.links_tagged net layer in
      if links = [] then None
      else begin
        let d = Distribution.create () in
        List.iter
          (fun l -> Distribution.add d (Xmp_net.Link.utilization l ~duration))
          links;
        Some (layer, d)
      end)
    Topology.layers
