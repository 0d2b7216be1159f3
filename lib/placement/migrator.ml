type env = {
  nodes : unit -> Placement_policy.node_info list;
  pages : now:int -> Placement_policy.pages;
  flush_logs : unit -> unit;
  move_page : Placement_policy.move -> int option;
  charge : node:int -> bytes:int -> now:int -> int;
}

type t = {
  policy : Placement_policy.t;
  epoch_ns : int;
  budget : int;
  page_bytes : int;
  env : env;
  mutable last_epoch : int;
  mutable epochs : int;
  mutable migrations : int;
  mutable bytes_moved : int;
  mutable failed : int;
  mutable charged_ns : int;
}

let create ~policy ~epoch_ns ~budget ~page_bytes env =
  if epoch_ns <= 0 then invalid_arg "Migrator.create: non-positive epoch";
  if budget <= 0 then invalid_arg "Migrator.create: non-positive budget";
  if page_bytes <= 0 then invalid_arg "Migrator.create: non-positive page size";
  {
    policy; epoch_ns; budget; page_bytes; env;
    last_epoch = 0; epochs = 0;
    migrations = 0; bytes_moved = 0; failed = 0; charged_ns = 0;
  }

let run_epoch t ~now =
  let nodes = t.env.nodes () in
  let pages = t.env.pages ~now in
  match t.policy.Placement_policy.plan ~nodes ~pages ~budget:t.budget with
  | [] -> ()
  | plan ->
      (* Staged CL-log entries resolve (node, raddr) at append time;
         flush them all before any translation changes underneath. *)
      t.env.flush_logs ();
      List.iter
        (fun mv ->
          match t.env.move_page mv with
          | None -> t.failed <- t.failed + 1
          | Some src ->
              t.migrations <- t.migrations + 1;
              t.bytes_moved <- t.bytes_moved + t.page_bytes;
              (* One read off the source link, one write onto the
                 destination's — both contend with tenant traffic. *)
              t.charged_ns <-
                t.charged_ns
                + t.env.charge ~node:src ~bytes:t.page_bytes ~now
                + t.env.charge ~node:mv.Placement_policy.mv_dst
                    ~bytes:t.page_bytes ~now)
        plan

let tick t ~now =
  let epoch = now / t.epoch_ns in
  if epoch > t.last_epoch then begin
    t.last_epoch <- epoch;
    t.epochs <- t.epochs + 1;
    run_epoch t ~now
  end

let force t ~now =
  (* An on-demand epoch consumes the current boundary: a subsequent
     [tick] in the same epoch stays a no-op, so forcing never doubles
     the migration rate. *)
  t.last_epoch <- max t.last_epoch (now / t.epoch_ns);
  t.epochs <- t.epochs + 1;
  run_epoch t ~now

let migrations t = t.migrations
let bytes_moved t = t.bytes_moved
let failed t = t.failed
let charged_ns t = t.charged_ns
let epochs t = t.epochs
let policy t = t.policy
