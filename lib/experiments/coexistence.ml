module Scheme = Xmp_workload.Scheme
module Driver = Xmp_workload.Driver
module Metrics = Xmp_workload.Metrics
module Table = Xmp_stats.Table

type cell = { xmp_mbps : float; partner_mbps : float }

type result = {
  partner : Scheme.t;
  queue_pkts : int;
  cell : cell;
}

let xmp = Scheme.xmp 2

let run (base : Run_spec.base) ~partner ~queue_pkts =
  let base = { base with Run_spec.queue_pkts } in
  let cfg =
    {
      (Run_spec.driver_config base xmp Run_spec.Random) with
      Driver.assignment = Driver.Split (xmp, partner);
    }
  in
  let r = Driver.run cfg in
  let m = r.Driver.metrics in
  {
    partner;
    queue_pkts;
    cell =
      {
        xmp_mbps = Metrics.mean_goodput_bps_of_scheme m xmp /. 1e6;
        partner_mbps = Metrics.mean_goodput_bps_of_scheme m partner /. 1e6;
      };
  }

let partners = [ Scheme.lia 2; Scheme.reno; Scheme.dctcp ]

let extended_partners = [ Scheme.balia 2; Scheme.veno 2; Scheme.amp 2 ]

let print_rows base partners =
  let cell partner queue_pkts =
    let r = run base ~partner ~queue_pkts in
    Printf.sprintf "%s : %s"
      (Table.fixed 1 r.cell.xmp_mbps)
      (Table.fixed 1 r.cell.partner_mbps)
  in
  let rows =
    List.map
      (fun partner ->
        [
          Printf.sprintf "XMP : %s" (Scheme.name partner);
          cell partner 50;
          cell partner 100;
        ])
      partners
  in
  Table.print
    ~header:[ "Pairing"; "Queue 50 pkts"; "Queue 100 pkts" ]
    ~rows ()

let print_table2 base =
  Render.heading
    "Table 2: average goodput (Mbps), XMP-2 coexisting per Random pattern";
  print_rows base partners

let print_table2_extended base =
  Render.heading
    "Table 2 (extended): XMP-2 coexisting with BALIA/VENO/AMP per Random \
     pattern";
  print_rows base extended_partners
